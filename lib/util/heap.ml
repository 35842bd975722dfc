type ('k, 'v) entry = { key : 'k; seq : int; value : 'v }

type ('k, 'v) t = {
  compare : 'k -> 'k -> int;
  mutable data : ('k, 'v) entry array;
  mutable size : int;
  mutable next_seq : int;
}

let[@dumbnet.hot] create ~compare = { compare; data = [||]; size = 0; next_seq = 0 }

let size t = t.size

let is_empty t = t.size = 0

(* Order by key, then by insertion sequence for FIFO among equal keys. *)
let[@dumbnet.hot] less t a b =
  let c = t.compare a.key b.key in
  c < 0 || (c = 0 && a.seq < b.seq)

let[@dumbnet.hot] swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let[@dumbnet.hot] rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let[@dumbnet.hot] rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && less t t.data.(l) t.data.(i) then l else i in
  let smallest = if r < t.size && less t t.data.(r) t.data.(smallest) then r else smallest in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

let[@dumbnet.hot] grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else 2 * cap in
  (* The dummy below is never read: size bounds all accesses. *)
  let data = Array.make new_cap t.data.(0) in
  Array.blit t.data 0 data 0 t.size;
  t.data <- data

let[@dumbnet.hot] push t key value =
  let entry = { key; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.data then
    if t.size = 0 then t.data <- [| entry |] else grow t;
  t.data.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let[@dumbnet.hot] pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (top.key, top.value)
  end

let peek t = if t.size = 0 then None else Some (t.data.(0).key, t.data.(0).value)

let clear t =
  t.size <- 0;
  t.data <- [||]
