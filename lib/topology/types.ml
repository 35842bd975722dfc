type switch_id = int

type host_id = int

type port = int

type endpoint =
  | Switch of switch_id
  | Host of host_id

let max_port = 254

let max_switch_id = (1 lsl 22) - 1

let max_host_id = (1 lsl 30) - 1

let pp_endpoint ppf = function
  | Switch s -> Format.fprintf ppf "S%d" s
  | Host h -> Format.fprintf ppf "H%d" h

let equal_endpoint a b =
  match (a, b) with
  | Switch x, Switch y -> x = y
  | Host x, Host y -> x = y
  | Switch _, Host _ | Host _, Switch _ -> false

type link_end = { sw : switch_id; port : port }

let pp_link_end ppf { sw; port } = Format.fprintf ppf "S%d-%d" sw port

module Link_key = struct
  type t = link_end * link_end

  (* Lexicographic on (a.sw, a.port, b.sw, b.port), the order the
     polymorphic compare gave these tuples, on ints. *)
  let[@dumbnet.hot] make a b =
    if a.sw < b.sw || (a.sw = b.sw && a.port <= b.port) then (a, b) else (b, a)

  let ends t = t

  let[@dumbnet.hot] compare ((a, b) : t) ((c, d) : t) =
    if a.sw <> c.sw then Int.compare a.sw c.sw
    else if a.port <> c.port then Int.compare a.port c.port
    else if b.sw <> d.sw then Int.compare b.sw d.sw
    else Int.compare b.port d.port

  let equal ((a, b) : t) ((c, d) : t) =
    a.sw = c.sw && a.port = c.port && b.sw = d.sw && b.port = d.port

  let pp ppf (a, b) = Format.fprintf ppf "%a<->%a" pp_link_end a pp_link_end b
end

module Link_set = Set.Make (Link_key)
module Switch_set = Set.Make (Int)
