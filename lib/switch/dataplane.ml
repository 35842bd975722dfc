open Dumbnet_topology
open Types
open Dumbnet_packet

type drop_reason =
  | No_tags
  | Path_ended_at_switch
  | Port_down of port
  | Port_out_of_range of port
  | Untagged
  | Ttl_expired

type action =
  | Forward of port * Frame.t
  | Forward_many of (port * Frame.t) list
  | Flood of Frame.t
  | Drop of drop_reason

(* One hop of the probe-program interpreter, entered when a popped
   Forward tag finds a program region in the frame. Everything it reads
   is already in the port hardware's hands: our own ID, the egress the
   tag names, that egress's instantaneous backlog, the ingress the
   frame arrived on — plus the program bytes themselves, which are the
   packet's only memory (countdowns are rewritten into the forwarded
   frame, fired MIRROR/BOUNCE instructions are deleted). The switch
   retains nothing. *)
let run_prog ~self ~num_ports ~port_up ~stamp ~in_port ~egress prog frame =
  let queue_depth =
    match stamp with
    | Some observe -> (observe egress).Int_stamp.queue_depth
    | None -> 0
  in
  let eligible (i : Probe_prog.instr) =
    Probe_prog.pred_matches i.Probe_prog.pred ~self ~egress ~queue_depth
  in
  let indexed = List.mapi (fun i ins -> (i, ins)) prog in
  (* At most one turn-around per hop: the first eligible BOUNCE wins. *)
  let bounce =
    List.find_map
      (fun (i, ins) ->
        match ins.Probe_prog.op with
        | Probe_prog.Bounce cont when eligible ins -> Some (i, cont)
        | Probe_prog.Bounce _ | Probe_prog.Stamp | Probe_prog.Mirror _ -> None)
      indexed
  in
  let mirrors =
    List.filter_map
      (fun (i, ins) ->
        match ins.Probe_prog.op with
        | Probe_prog.Mirror cont when eligible ins -> Some (i, cont)
        | Probe_prog.Mirror _ | Probe_prog.Stamp | Probe_prog.Bounce _ -> None)
      indexed
  in
  let want_stamp =
    List.exists
      (fun (i : Probe_prog.instr) ->
        match i.Probe_prog.op with
        | Probe_prog.Stamp -> eligible i
        | Probe_prog.Mirror _ | Probe_prog.Bounce _ -> false)
      prog
  in
  (* The egress this hop actually uses: the ingress when bouncing. *)
  let out_port =
    match bounce with
    | Some _ -> in_port
    | None -> egress
  in
  let frame =
    match stamp with
    | Some observe when want_stamp && frame.Frame.int_enabled ->
      Frame.add_stamp (observe out_port) frame
    | Some _ | None -> frame
  in
  let consumed i =
    (match bounce with
    | Some (bi, _) -> bi = i
    | None -> false)
    || List.exists (fun (mi, _) -> mi = i) mirrors
  in
  let survivors = List.filteri (fun i _ -> not (consumed i)) prog in
  let frame =
    match survivors with
    | [] -> Frame.strip_prog frame
    | _ :: _ -> Frame.with_prog (Probe_prog.age survivors) frame
  in
  (* Mirror copies leave on the ingress, retagged and stripped of the
     program, carrying the stamp region as of this hop. *)
  let copies =
    List.map
      (fun (_, cont) ->
        (in_port, Frame.strip_prog { frame with Frame.tags = Tag.of_ports cont }))
      mirrors
  in
  let primary =
    match bounce with
    | Some (_, cont) ->
      if in_port >= 1 && in_port <= num_ports && port_up in_port then
        Some (in_port, { frame with Frame.tags = Tag.of_ports cont })
      else None
    | None ->
      if port_up egress then Some (egress, frame) else None
  in
  match (primary, copies) with
  | Some (p, f), [] -> Forward (p, f)
  | Some pf, _ :: _ -> Forward_many (pf :: copies)
  | None, _ :: _ -> Forward_many copies
  | None, [] -> Drop (Port_down out_port)

(* The common hop, and the only one that rewrites nothing but the tag
   stack: the [Forward p] branch of [process_tags] below for a frame
   with no program and no INT flag, on an up port in range. *)
let[@dumbnet.hot] plain_pop ~num_ports ~port_up (frame : Frame.t) tags =
  match tags with
  | Tag.Forward p :: _
    when frame.Frame.ethertype = Frame.ethertype_dumbnet
         && Option.is_none frame.Frame.prog
         && (not frame.Frame.int_enabled)
         && p >= 1 && p <= num_ports && port_up p ->
    p
  | Tag.Forward _ :: _ | Tag.Id_query :: _ | Tag.End_of_path :: _ | [] -> 0

let rec process_tags ~self ~num_ports ~port_up ~stamp ~in_port (frame : Frame.t) =
  match frame.Frame.tags with
  | [] -> Drop No_tags
  | Tag.End_of_path :: _ -> Drop Path_ended_at_switch
  | Tag.Id_query :: rest ->
    (* Answer in place: consume the query tag, stamp our identity, and
       keep routing the rewritten frame along the remaining tags. *)
    let reply =
      {
        frame with
        Frame.src = Frame.Node (Switch self);
        tags = rest;
        payload = Payload.Id_reply { switch = self };
      }
    in
    process_tags ~self ~num_ports ~port_up ~stamp ~in_port reply
  | Tag.Forward p :: rest ->
    if p < 1 || p > num_ports then Drop (Port_out_of_range p)
    else begin
      match frame.Frame.prog with
      | Some prog ->
        (* Program hops see the popped tag even when the named egress is
           down — a BOUNCE can still turn the frame around on its
           ingress, which is what lets probes localize dead or lying
           egresses from the near side. *)
        run_prog ~self ~num_ports ~port_up ~stamp ~in_port ~egress:p prog
          { frame with Frame.tags = rest }
      | None ->
        if not (port_up p) then Drop (Port_down p)
        else begin
          let frame = { frame with Frame.tags = rest } in
          (* In-band telemetry: an INT-flagged frame gets one stamp appended
             as it is popped — a fixed-cost blind write of values the
             hardware already observes (own ID, chosen port, egress backlog,
             clock). No state is consulted or retained, so the switch stays
             dumb. *)
          let frame =
            match stamp with
            | Some observe when frame.Frame.int_enabled -> Frame.add_stamp (observe p) frame
            | Some _ | None -> frame
          in
          Forward (p, frame)
        end
    end

let[@dumbnet.hot] notice_spent (frame : Frame.t) =
  frame.Frame.ethertype = Frame.ethertype_notice
  &&
  match frame.Frame.payload with
  | Payload.Port_notice { hops_left; _ } -> hops_left <= 0
  | Payload.Data _ | Payload.Probe _ | Payload.Probe_reply _ | Payload.Id_reply _
  | Payload.Host_flood _ | Payload.Topo_patch _ | Payload.Path_query _
  | Payload.Path_response _ | Payload.Controller_hello _ | Payload.Peer_list _
  | Payload.Ecn_echo _ | Payload.Rts _ | Payload.Token _ | Payload.Int_probe _ ->
    false

let handle ~self ~num_ports ~port_up ?stamp ~in_port frame =
  if frame.Frame.ethertype = Frame.ethertype_dumbnet then
    process_tags ~self ~num_ports ~port_up ~stamp ~in_port frame
  else if notice_spent frame then Drop Ttl_expired
  else if frame.Frame.ethertype = Frame.ethertype_notice then begin
    match frame.Frame.payload with
    | Payload.Port_notice { event; hops_left } ->
      Flood { frame with Frame.payload = Payload.Port_notice { event; hops_left = hops_left - 1 } }
    | Payload.Data _ | Payload.Probe _ | Payload.Probe_reply _ | Payload.Id_reply _
    | Payload.Host_flood _ | Payload.Topo_patch _ | Payload.Path_query _
    | Payload.Path_response _ | Payload.Controller_hello _ | Payload.Peer_list _
    | Payload.Ecn_echo _ | Payload.Rts _ | Payload.Token _ | Payload.Int_probe _ ->
      Drop Untagged
  end
  else Drop Untagged

let pp_drop_reason ppf = function
  | No_tags -> Format.fprintf ppf "no-tags"
  | Path_ended_at_switch -> Format.fprintf ppf "path-ended-at-switch"
  | Port_down p -> Format.fprintf ppf "port-%d-down" p
  | Port_out_of_range p -> Format.fprintf ppf "port-%d-out-of-range" p
  | Untagged -> Format.fprintf ppf "untagged"
  | Ttl_expired -> Format.fprintf ppf "ttl-expired"
