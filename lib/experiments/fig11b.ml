(** Figure 11(b): throughput across a link failure — DumbNet's two-stage
    host failover against spanning-tree re-convergence. One saturating
    flow between hosts on different leaves, fabric capped at 0.5 Gbps
    (as in the paper, so the link is saturable); the spine link the flow
    rides is cut mid-run. *)

open Dumbnet_topology
open Dumbnet_sim
open Dumbnet_host
open Dumbnet_workload
module Stp = Dumbnet_baseline.Stp

let link_gbps = 0.5

let warmup_ns = 100_000_000

let total_ns = 400_000_000

let bin_ns = 10_000_000

type mode =
  | Dumbnet_mode
  | Stp_mode

let mode_name = function
  | Dumbnet_mode -> "DumbNet"
  | Stp_mode -> "STP"

let run_mode mode =
  let built = Builder.leaf_spine ~spines:2 ~leaves:2 ~hosts_per_leaf:3 () in
  let config = { Network.default_config with bandwidth_gbps = link_gbps } in
  let fab = Dumbnet.Fabric.create ~config ~seed:37 built in
  let g = Network.graph (Dumbnet.Fabric.network fab) in
  let hosts = built.Builder.hosts in
  let src = List.nth hosts 1 and dst = List.nth hosts 4 in
  let tref = ref (Stp.build g) in
  (match mode with
  | Stp_mode ->
    List.iter
      (fun h ->
        Agent.set_routing_fn (Dumbnet.Fabric.agent fab h) (Some (Stp.routing_fn tref)))
      hosts
  | Dumbnet_mode -> ());
  let t0 = Dumbnet.Fabric.now_ns fab in
  let flows = [ Flow.make ~id:0 ~src ~dst ~bytes:max_int ~start_ns:t0 () ] in
  let t_fail = t0 + warmup_ns in
  let eng = Dumbnet.Fabric.engine fab in
  (* Cut the link the flow is riding when the failure time comes, and in
     STP mode swap in the re-converged tree after the modelled delay. *)
  Engine.schedule_at eng ~at_ns:t_fail (fun () ->
      let path =
        match mode with
        | Stp_mode -> Stp.path !tref ~src ~dst
        | Dumbnet_mode ->
          Pathtable.choose (Agent.pathtable (Dumbnet.Fabric.agent fab src)) ~dst ~flow:0
      in
      let[@dumbnet.partial
           "experiment setup assertion: a missing victim path means the scenario \
            itself is broken, and aborting the bench process is intended"] uplink =
        match path with
        | Some p -> (
          match p.Path.hops with
          | (sw, port) :: _ -> { Types.sw; port }
          | [] -> failwith "fig11b: empty path")
        | None -> failwith "fig11b: no active path to cut"
      in
      Network.fail_link (Dumbnet.Fabric.network fab) uplink;
      match mode with
      | Stp_mode ->
        Engine.schedule eng ~delay_ns:(Stp.convergence_delay_ns g) (fun () ->
            tref := Stp.build g)
      | Dumbnet_mode -> ());
  let result =
    Runner.run
      ~pacing:{ Runner.default_pacing with packet_gap_ns = 10_000; burst_bytes = max_int }
      ~deadline_ns:(t0 + total_ns)
      ~engine:eng
      ~agent_of:(Dumbnet.Fabric.agent fab) ~flows ()
  in
  let series =
    Runner.throughput_series ~bin_ns ~from_ns:t0 ~to_ns:(t0 + total_ns) result.Runner.arrivals
  in
  (* Rates in Mbps, time relative to the failure instant. *)
  let series =
    List.map (fun (at, gbps) -> (float_of_int (at - t_fail) /. 1e6, gbps *. 1e3)) series
  in
  let pre = List.filter (fun (t, _) -> t < -10. && t > -80.) series |> List.map snd in
  let steady = Dumbnet_util.Stats.mean pre in
  let recovery =
    List.find_opt (fun (t, r) -> t >= 0. && r >= 0.9 *. steady) series
  in
  (steady, recovery, series)

let run () =
  Report.section ~id:"Figure 11(b)" ~title:"Throughput recovery after a link failure";
  let results = List.map (fun m -> (m, run_mode m)) [ Dumbnet_mode; Stp_mode ] in
  let recovery_ms = function
    | Some (t, _) -> t
    | None -> infinity
  in
  let rows =
    List.map
      (fun (m, (steady, recovery, _)) ->
        [
          mode_name m;
          Printf.sprintf "%.0f Mbps" steady;
          Report.ms (recovery_ms recovery);
        ])
      results
  in
  Report.table ~headers:[ "mode"; "steady rate"; "recovery (>=90%)" ] rows;
  (match results with
  | [ (_, (_, rd, _)); (_, (_, rs, _)) ] ->
    let d = recovery_ms rd and s = recovery_ms rs in
    if Float.is_finite d && Float.is_finite s && d > 0. then
      Report.note
        (Printf.sprintf "STP/DumbNet recovery ratio: %.1fx (paper: ~4.7x faster than STP)"
           (s /. d))
  | _ -> ());
  (* The actual Fig 11(b) curve, 10 ms bins around the failure. *)
  let _, _, dumbnet_series = List.assoc Dumbnet_mode results in
  let _, _, stp_series = List.assoc Stp_mode results in
  let interesting (t, _) = t >= -30. && t <= 120. in
  let rows =
    List.map2
      (fun (t, rd) (_, rs) ->
        [ Printf.sprintf "%+.0f ms" t; Printf.sprintf "%.0f" rd; Printf.sprintf "%.0f" rs ])
      (List.filter interesting dumbnet_series)
      (List.filter interesting stp_series)
  in
  Report.table ~headers:[ "t (failure at 0)"; "DumbNet Mbps"; "STP Mbps" ] rows
