open Dumbnet_topology
open Types
open Dumbnet_packet
open Dumbnet_sim
open Dumbnet_host

type outcome = {
  o_seq : int;
  o_returned : bool;
  o_rtt_ns : int;
  o_stamps : Int_stamp.t list;
}

type pending =
  | P_loop of link_end list
  | P_prog of (outcome -> unit)

type t = {
  interval_ns : int;
  timeout_ns : int;
  engine : Engine.t;
  agent : Agent.t;
  collector : Collector.t;
  outstanding : (int, pending) Hashtbl.t;
  mutable next_seq : int;
  mutable cursor : int;
  mutable running : bool;
  mutable sent : int;
  mutable returned : int;
  mutable lost : int;
  mutable prog_sent : int;
  mutable on_return : (seq:int -> rtt_ns:int -> stamps:Int_stamp.t list -> unit) option;
}

let create ?(interval_ns = 200_000) ?(timeout_ns = 5_000_000) ~engine ~agent ~collector () =
  let t =
    {
      interval_ns;
      timeout_ns;
      engine;
      agent;
      collector;
      outstanding = Hashtbl.create 16;
      next_seq = 0;
      cursor = 0;
      running = false;
      sent = 0;
      returned = 0;
      lost = 0;
      prog_sent = 0;
      on_return = None;
    }
  in
  Agent.set_int_probe_hook agent (fun ~seq ~sent_ns ~stamps ->
      match Hashtbl.find_opt t.outstanding seq with
      | None -> ()
      | Some (P_loop _) -> (
        Hashtbl.remove t.outstanding seq;
        t.returned <- t.returned + 1;
        match t.on_return with
        | Some f -> f ~seq ~rtt_ns:(Engine.now engine - sent_ns) ~stamps
        | None -> ())
      | Some (P_prog on_done) ->
        Hashtbl.remove t.outstanding seq;
        on_done
          { o_seq = seq; o_returned = true; o_rtt_ns = Engine.now engine - sent_ns; o_stamps = stamps });
  t

let on_return t f = t.on_return <- Some f

let sent t = t.sent

let returned t = t.returned

let lost t = t.lost

let prog_sent t = t.prog_sent

exception Unknown_link

type leg = {
  leg_from : link_end;
  leg_to : link_end;
}

(* Resolve each consecutive switch pair of a path against the cached
   adjacency: the egress the tag names and the matching ingress on the
   far side — the cable the hop crosses, both ends. *)
let path_legs ~adj (path : Path.t) =
  let rec walk acc = function
    | (s1, p1) :: ((s2, _) :: _ as rest) -> (
      let leg_from = { sw = s1; port = p1 } in
      match Adjacency.peer_at adj leg_from with
      | Some leg_to when leg_to.sw = s2 -> walk ({ leg_from; leg_to } :: acc) rest
      | Some _ | None -> raise Unknown_link)
    | [ _ ] | [] -> List.rev acc
  in
  try Some (walk [] path.Path.hops) with Unknown_link -> None

(* Turn a cached forward path into a loop: out along the inter-switch
   egresses, turn around at the last switch, back through each hop's
   ingress port, and finally out the sender's own access port. Returns
   the tag sequence plus every egress the loop will be stamped at, in
   traversal order. *)
let build_loop ~adj ~src_port (path : Path.t) =
  match path.Path.hops with
  | [] -> None
  | (first_sw, _) :: _ -> (
    match path_legs ~adj path with
    | None -> None
    | Some legs ->
      let tags =
        List.map (fun l -> l.leg_from.port) legs
        @ List.rev_map (fun l -> l.leg_to.port) legs
        @ [ src_port ]
      in
      let out = List.map (fun l -> l.leg_from) legs in
      let back = List.rev_map (fun l -> l.leg_to) legs in
      Some (tags, out @ back @ [ { sw = first_sw; port = src_port } ]))

let fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  seq

let send_program t ~tags ~prog ?timeout_ns ~on_done () =
  let timeout_ns =
    match timeout_ns with
    | Some v -> v
    | None -> t.timeout_ns
  in
  let self = Agent.self t.agent in
  let seq = fresh_seq t in
  let payload = Payload.Int_probe { origin = self; seq; sent_ns = Engine.now t.engine } in
  let frame =
    Frame.with_prog prog (Frame.with_int (Frame.along_path ~src:self ~dst:self ~tags_of:tags ~payload))
  in
  Hashtbl.replace t.outstanding seq (P_prog on_done);
  t.prog_sent <- t.prog_sent + 1;
  Agent.send_raw t.agent frame;
  Engine.schedule_daemon t.engine ~delay_ns:timeout_ns (fun () ->
      match Hashtbl.find_opt t.outstanding seq with
      | Some (P_prog f) ->
        Hashtbl.remove t.outstanding seq;
        f { o_seq = seq; o_returned = false; o_rtt_ns = timeout_ns; o_stamps = [] }
      | Some (P_loop _) | None -> ());
  seq

let probe_once t =
  let dsts = List.sort compare (Topocache.known (Agent.topocache t.agent)) in
  match dsts with
  | [] -> false
  | _ -> (
    let ndsts = List.length dsts in
    let dst = List.nth dsts (t.cursor mod ndsts) in
    let paths = Pathtable.paths_to (Agent.pathtable t.agent) ~dst in
    let pg = Topocache.get (Agent.topocache t.agent) ~dst in
    t.cursor <- t.cursor + 1;
    match (paths, pg) with
    | [], _ | _, None -> false
    | paths, Some pg -> (
      (* cursor walks destinations; a full sweep advances the path pick,
         so every cached path of every destination gets sampled *)
      let path = List.nth paths ((t.cursor - 1) / ndsts mod List.length paths) in
      let adj = Pathgraph.adjacency pg in
      let src_port = (Pathgraph.src_loc pg).port in
      match build_loop ~adj ~src_port path with
      | None -> false
      | Some (tags, loop) ->
        let self = Agent.self t.agent in
        let seq = fresh_seq t in
        let payload =
          Payload.Int_probe { origin = self; seq; sent_ns = Engine.now t.engine }
        in
        let frame =
          Frame.with_int (Frame.along_path ~src:self ~dst:self ~tags_of:tags ~payload)
        in
        Hashtbl.replace t.outstanding seq (P_loop loop);
        t.sent <- t.sent + 1;
        Agent.send_raw t.agent frame;
        Engine.schedule_daemon t.engine ~delay_ns:t.timeout_ns (fun () ->
            match Hashtbl.find_opt t.outstanding seq with
            | Some (P_loop loop) ->
              Hashtbl.remove t.outstanding seq;
              t.lost <- t.lost + 1;
              List.iter (Collector.note_loss t.collector) loop
            | Some (P_prog _) | None -> ());
        true))

let start t =
  if not t.running then begin
    t.running <- true;
    let rec tick () =
      if t.running then begin
        ignore (probe_once t);
        Engine.schedule_daemon t.engine ~delay_ns:t.interval_ns tick
      end
    in
    Engine.schedule_daemon t.engine ~delay_ns:t.interval_ns tick
  end

let stop t = t.running <- false
