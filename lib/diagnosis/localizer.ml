open Dumbnet_topology
open Types
open Dumbnet_packet
open Dumbnet_sim
open Dumbnet_host
open Dumbnet_telemetry

type fault_class =
  | Healthy
  | Silent_drop of {
      near : link_end;
      far : link_end;
    }
  | Miswired of {
      near : link_end;
      far : link_end;
      actual : switch_id;
      actual_port : port;
    }
  | Degraded of {
      near : link_end;
      far : link_end;
      probe_loss : float;
    }
  | Inconclusive

type verdict = {
  v_dst : host_id;
  v_path : Path.t;
  v_class : fault_class;
  v_probes : int;
  v_batches : int;
  v_started_ns : int;
  v_elapsed_ns : int;
}

type t = {
  engine : Engine.t;
  agent : Agent.t;
  prober : Prober.t;
  demote : bool;
  mutable verdicts : verdict list; (* newest first *)
}

let create ?(demote = true) ~engine ~agent ~prober () =
  { engine; agent; prober; demote; verdicts = [] }

let verdicts t = List.rev t.verdicts

let faulty_ends = function
  | Silent_drop { near; far }
  | Miswired { near; far; _ }
  | Degraded { near; far; _ } ->
    Some (near, far)
  | Healthy | Inconclusive -> None

(* The longest prefix 1..r of returned probes, and whether anything
   past it returned (a straggler breaks the contiguous-prefix reading
   and points at a probabilistic fault instead of a hard one). *)
let prefix_of returned n =
  let r = ref 0 in
  while !r < n && returned (!r + 1) do
    incr r
  done;
  let straggler = ref false in
  for k = !r + 1 to n do
    if returned k then straggler := true
  done;
  (!r, !straggler)

let diagnose ?path ?(max_batches = 4) t ~dst ~on_done =
  match Topocache.get (Agent.topocache t.agent) ~dst with
  | None -> false
  | Some pg -> (
    let path =
      match path with
      | Some p -> p
      | None -> Pathgraph.primary pg
    in
    let adj = Pathgraph.adjacency pg in
    let src_port = (Pathgraph.src_loc pg).port in
    match Prober.path_legs ~adj path with
    | None -> false
    | Some [] -> false (* single-switch path: no fabric cable to localize on *)
    | Some (_ :: _ as legs_list) ->
      let hops = Array.of_list path.Path.hops in
      let legs = Array.of_list legs_list in
      let n = Array.length hops in
      let tags = Path.tags path in
      let started = Engine.now t.engine in
      let suspects = Suspects.create () in
      let probes_sent = ref 0 in
      let finish batches v_class =
        (match (t.demote, faulty_ends v_class) with
        | true, Some (near, far) ->
          ignore (Agent.demote_link t.agent near);
          ignore (Agent.demote_link t.agent far)
        | true, None | false, _ -> ());
        let v =
          {
            v_dst = dst;
            v_path = path;
            v_class;
            v_probes = !probes_sent;
            v_batches = batches;
            v_started_ns = started;
            v_elapsed_ns = Engine.now t.engine - started;
          }
        in
        t.verdicts <- v :: t.verdicts;
        on_done v
      in
      let leg_key j = Link_key.make legs.(j).Prober.leg_from legs.(j).Prober.leg_to in
      (* Cables probe k exercises (each crossed out and back). The
         access cable is shared by every probe, so it carries no
         distinguishing power and stays out of the suspect table. *)
      let covered k = List.init (k - 1) leg_key in
      (* Return route from hop k once the bounce has crossed back to
         hop k-1: the ingress ports of the already-verified prefix,
         innermost first, then the sender's own access port. *)
      let continuation k =
        if k = 1 then []
        else
          List.init (k - 2) (fun i -> legs.(k - 3 - i).Prober.leg_to.port) @ [ src_port ]
      in
      (* A returned probe's outbound stamps, positions 0..k-1, must name
         the intended switches, and the bounce stamp at k-1 (which
         records the port the probe came in on) the intended ingress;
         the first mismatch reads the true landing point of whatever
         the cable into that hop now reaches — possibly the expected
         switch through another port. *)
      let scan_miswire outcomes =
        let rec scan_chain k i stamps =
          match stamps with
          | [] -> None
          | (st : Int_stamp.t) :: rest ->
            if i >= k then None
            else begin
              let exp_sw, _ = hops.(i) in
              let port_ok =
                i = 0 || i < k - 1 || st.Int_stamp.port = legs.(i - 1).Prober.leg_to.port
              in
              if st.Int_stamp.switch = exp_sw && port_ok then scan_chain k (i + 1) rest
              else if i = 0 then
                (* Our own access cable delivers to a foreign switch:
                   real, but nothing on the path names its far end. *)
                Some Inconclusive
              else
                Some
                  (Miswired
                     {
                       near = legs.(i - 1).Prober.leg_from;
                       far = legs.(i - 1).Prober.leg_to;
                       actual = st.Int_stamp.switch;
                       actual_port = st.Int_stamp.port;
                     })
            end
        in
        let best = ref None in
        for k = 1 to n do
          match outcomes.(k) with
          | Some (o : Prober.outcome) when o.Prober.o_returned -> (
            match (!best, scan_chain k 0 o.Prober.o_stamps) with
            | None, Some v -> best := Some v
            | Some _, _ | None, None -> ())
          | Some _ | None -> ()
        done;
        !best
      in
      let rec run_batch ~batch ~prev =
        let outcomes = Array.make (n + 1) None in
        let got = ref 0 in
        for k = 1 to n do
          let prog =
            Probe_prog.of_instrs
              [
                Probe_prog.stamp_all;
                Probe_prog.bounce ~pred:(Probe_prog.at_hop k) (continuation k);
              ]
          in
          incr probes_sent;
          ignore
            (Prober.send_program t.prober ~tags ~prog
               ~on_done:(fun o ->
                 outcomes.(k) <- Some o;
                 incr got;
                 if !got = n then evaluate ~batch ~prev outcomes)
               ())
        done
      and evaluate ~batch ~prev outcomes =
        let returned k =
          match outcomes.(k) with
          | Some (o : Prober.outcome) -> o.Prober.o_returned
          | None -> false
        in
        for k = 1 to n do
          Suspects.observe suspects ~covered:(covered k) ~ok:(returned k)
        done;
        match scan_miswire outcomes with
        | Some v -> finish batch v
        | None -> (
          let signature = List.init n (fun i -> returned (i + 1)) in
          let r, straggler = prefix_of returned n in
          let fails_seen =
            match Suspects.top suspects with
            | Some _ -> true
            | None -> false
          in
          let all_failed = not (List.exists (fun x -> x) signature) in
          if r = n && not fails_seen then begin
            (* A clean sweep — but a probabilistic fault can get lucky,
               so healthy too needs a confirming batch. *)
            if batch >= min 2 max_batches then finish batch Healthy
            else run_batch ~batch:(batch + 1) ~prev:(Some signature)
          end
          else if (not straggler) && r < n && (r >= 1 || all_failed) then begin
            (* A clean cut at cable r (or a total blackout, which only
               the access cable explains — probe 1 never touches the
               fabric). One confirming batch separates a hard fault
               from a corrupting link that happened to fail
               contiguously. *)
            let confirmed =
              match prev with
              | Some s -> s = signature
              | None -> false
            in
            if confirmed || batch >= max_batches then
              if all_failed then finish batch Inconclusive
              else
                finish batch
                  (Silent_drop
                     { near = legs.(r - 1).Prober.leg_from; far = legs.(r - 1).Prober.leg_to })
            else run_batch ~batch:(batch + 1) ~prev:(Some signature)
          end
          else if batch < max_batches then run_batch ~batch:(batch + 1) ~prev:(Some signature)
          else begin
            (* Outcomes never settled into a hard-fault signature:
               rank by failure fraction accumulated across batches. *)
            match Suspects.top suspects with
            | Some ranked ->
              let a, b = Link_key.ends ranked.Suspects.r_key in
              finish batch (Degraded { near = a; far = b; probe_loss = ranked.Suspects.r_fail_frac })
            | None -> finish batch Inconclusive
          end)
      in
      run_batch ~batch:1 ~prev:None;
      true)

(* {2 Gray-failure hand-off} *)

let crosses_end legs le =
  List.exists
    (fun (l : Prober.leg) ->
      (l.Prober.leg_from.sw = le.sw && l.Prober.leg_from.port = le.port)
      || (l.Prober.leg_to.sw = le.sw && l.Prober.leg_to.port = le.port))
    legs

let diagnose_suspect ?max_batches t (s : Health.suspect) ~on_done =
  let cache = Agent.topocache t.agent in
  let dsts = List.sort compare (Topocache.known cache) in
  let covering =
    List.find_opt
      (fun dst ->
        match Topocache.get cache ~dst with
        | None -> false
        | Some pg -> (
          let path = Pathgraph.primary pg in
          match Prober.path_legs ~adj:(Pathgraph.adjacency pg) path with
          | None -> false
          | Some legs -> crosses_end legs s.Health.s_link))
      dsts
  in
  match covering with
  | None -> false
  | Some dst -> diagnose ?max_batches t ~dst ~on_done

let attach_health ?max_batches t health =
  Health.set_on_suspect health (fun s ->
      ignore (diagnose_suspect ?max_batches t s ~on_done:(fun _ -> ())))

let pp_class ppf = function
  | Healthy -> Format.fprintf ppf "healthy"
  | Silent_drop { near; far } ->
    Format.fprintf ppf "silent drop on %a<->%a" pp_link_end near pp_link_end far
  | Miswired { near; far; actual; actual_port } ->
    Format.fprintf ppf "miswired %a<->%a: cable now lands on S%d:%d" pp_link_end near
      pp_link_end far actual actual_port
  | Degraded { near; far; probe_loss } ->
    Format.fprintf ppf "degraded %a<->%a (probe loss %.0f%%)" pp_link_end near pp_link_end far
      (100. *. probe_loss)
  | Inconclusive -> Format.fprintf ppf "inconclusive"

let pp_verdict ppf v =
  Format.fprintf ppf "dst H%d: %a [%d probes, %d batches, %.2f ms]" v.v_dst pp_class v.v_class
    v.v_probes v.v_batches
    (float_of_int v.v_elapsed_ns /. 1e6)
