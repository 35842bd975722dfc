module Table = Dumbnet_util.Table

let section ~id ~title =
  Printf.printf "\n=== %s: %s ===\n" id title

let note s = Printf.printf "%s\n" s

let table ~headers rows = Table.print (Table.of_rows headers rows)

let gbps v = Printf.sprintf "%.2f Gbps" v

let ms v = Printf.sprintf "%.2f ms" v

let us v = Printf.sprintf "%.2f µs" v

let seconds v = Printf.sprintf "%.2f s" v

let pct v = Printf.sprintf "%.1f%%" v
