(* Quickstart: the paper's Figure-1 fabric, end to end.

   Builds the 5-switch sample topology, lets the controller host
   discover it with probe messages, boots the host agents, sends a
   packet from H4 to H5 (watch the tag sequence), then cuts the link the
   path used and shows the host failing over from its cached path graph
   without asking the controller.

   Run with: dune exec examples/quickstart.exe *)

open Dumbnet
open Topology

let () =
  print_endline "== DumbNet quickstart: the Figure-1 fabric ==";
  let built = Builder.figure1 () in
  Format.printf "%a@." Graph.pp built.Builder.graph;

  (* One call: discovery, controller bootstrap, cache push. *)
  let fab = Fabric.create built in
  let d = Fabric.discovery fab in
  Printf.printf "discovery: %d switches, %d hosts, %d links found with %d probe messages\n"
    d.Control.Discovery.stats.switches_found d.Control.Discovery.stats.hosts_found
    d.Control.Discovery.stats.links_found d.Control.Discovery.stats.probes_sent;
  Printf.printf "discovered topology identical to ground truth: %b\n\n"
    (Graph.equal d.Control.Discovery.topology built.Builder.graph);

  (* Paper §3.2: a packet from H4 to H5. Host ids: H1..H5 = 0..4, the
     controller C3 = 5. *)
  let h4 = 3 and h5 = 4 in
  (match Fabric.send fab ~src:h4 ~dst:h5 ~size:1000 () with
  | Host.Agent.Sent path ->
    Format.printf "H4 -> H5 source route: %a (tags %s-ø)@." Path.pp path
      (String.concat "-" (List.map string_of_int (Path.tags path)))
  | Host.Agent.Queued -> print_endline "H4 -> H5: path query in flight"
  | Host.Agent.No_route -> print_endline "H4 -> H5: no route!");
  Fabric.run fab;
  let st = Host.Agent.stats (Fabric.agent fab h5) in
  Printf.printf "H5 received %d packet(s), %d bytes, latency %.0f µs\n\n"
    st.Host.Agent.data_received st.Host.Agent.bytes_received
    (if st.Host.Agent.latency_count > 0 then float_of_int st.Host.Agent.latency_last_ns /. 1e3
     else nan);

  (* Cut the spine link the packet used; the switch broadcasts a port
     notice, hosts flood it, and H4's next packet takes the other
     spine — no controller on the critical path. *)
  (match Host.Pathtable.choose (Host.Agent.pathtable (Fabric.agent fab h4)) ~dst:h5 ~flow:0 with
  | Some { Path.hops = (sw, port) :: _; _ } ->
    Printf.printf "cutting link at S%d port %d...\n" sw port;
    Fabric.fail_link fab { sw; port }
  | Some _ | None -> ());
  Fabric.run fab;
  (match Fabric.send fab ~src:h4 ~dst:h5 ~flow:1 ~size:1000 () with
  | Host.Agent.Sent path -> Format.printf "after failure, H4 -> H5 reroutes: %a@." Path.pp path
  | Host.Agent.Queued -> print_endline "after failure: re-querying controller"
  | Host.Agent.No_route -> print_endline "after failure: no route!");
  Fabric.run fab;
  Printf.printf "H5 total received: %d packets — failover complete.\n"
    st.Host.Agent.data_received
