type t = { headers : string list; mutable rows : string list list }

let create headers = { headers; rows = [] }

let add_row t row =
  let width = List.length t.headers in
  let n = List.length row in
  if n > width then invalid_arg "Table.add_row: more cells than headers";
  let padded = row @ List.init (width - n) (fun _ -> "") in
  t.rows <- padded :: t.rows

let of_rows headers rows =
  let t = create headers in
  List.iter (add_row t) rows;
  t

let render t =
  let rows = List.rev t.rows in
  let all = t.headers :: rows in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let record_widths row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter record_widths all;
  let buf = Buffer.create 256 in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row t.headers;
  let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let print t = print_string (render t)

let markdown t =
  let line cells = "| " ^ String.concat " | " cells ^ " |\n" in
  let rule = List.mapi (fun i _ -> if i = 0 then "---" else "---:") t.headers in
  String.concat "" (line t.headers :: ("|" ^ String.concat "|" rule ^ "|\n") :: List.rev_map line t.rows)
