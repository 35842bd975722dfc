(* Fixture: R3 — a raise escaping a callback handed to a delay line is
   flagged like one handed to the heap's registrars. *)

let bad line = Engine.schedule_line line (fun () -> failwith "boom")

let wrapped line = Engine.schedule_line line (fun () -> try failwith "contained" with _ -> ())
