type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 finalizer: xor-shift multiply mixing of the advanced state. *)
let[@dumbnet.hot] next_state t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

let[@dumbnet.hot] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@dumbnet.hot] int64 t = mix (next_state t)

let split t = { state = int64 t }

let[@dumbnet.hot] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let[@dumbnet.hot] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0) (* 2^53 *)

let bool t = Int64.logand (int64 t) 1L = 1L

let[@dumbnet.hot] pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let exponential t mean =
  let u = float t 1.0 in
  let u = if u = 0.0 then epsilon_float else u in
  -.mean *. log u

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
