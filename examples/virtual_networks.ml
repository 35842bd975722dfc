(* Network virtualization (paper §6.1).

   Two tenants share the testbed fabric: "red" may use spine 0 only,
   "blue" spine 1 only. The controller serves each tenant path graphs
   computed inside its slice, and the path verifier rejects any
   application-supplied route that strays outside it — isolation without
   a single rule in any switch.

   Run with: dune exec examples/virtual_networks.exe *)

open Dumbnet
open Topology
module Virtual_net = Ext.Virtual_net
module Verifier = Host.Verifier

let () =
  print_endline "== Network virtualization on DumbNet ==";
  let built = Builder.testbed () in
  let fab = Fabric.create ~seed:13 built in
  let vnet = Virtual_net.create ~controller:(Fabric.controller fab) () in
  (* Switch ids: 0,1 are the spines, 2..6 the leaves. *)
  let leaves = [ 2; 3; 4; 5; 6 ] in
  let slice spine = Types.Switch_set.of_list (spine :: leaves) in
  let hosts = Array.of_list built.Builder.hosts in
  let red_hosts = Array.to_list (Array.sub hosts 0 13) in
  let blue_hosts = Array.to_list (Array.sub hosts 13 14) in
  Virtual_net.add_tenant vnet ~name:"red" ~switches:(slice 0) ~hosts:red_hosts;
  Virtual_net.add_tenant vnet ~name:"blue" ~switches:(slice 1) ~hosts:blue_hosts;
  Printf.printf "tenants: %s\n" (String.concat ", " (Virtual_net.tenants vnet));

  let red_a = List.nth red_hosts 0 and red_b = List.nth red_hosts 12 in
  (match Virtual_net.serve vnet ~tenant:"red" ~src:red_a ~dst:red_b with
  | Some pg ->
    let p = Pathgraph.primary pg in
    Format.printf "red H%d -> H%d inside the slice: %a (isolated: %b)@." red_a red_b Path.pp p
      (Virtual_net.isolated vnet ~tenant:"red" p)
  | None -> print_endline "red: no path inside the slice!");

  (* A malicious red application tries to route through spine 1. *)
  (match Routing.host_route built.Builder.graph ~src:red_a ~dst:red_b with
  | Some any_path ->
    let via_blue =
      (* Force the other spine: route on the fabric without spine 0. *)
      let g = built.Builder.graph in
      let snap = Graph.adjacency g in
      let mark = Bytes.make (Adjacency.id_bound snap) '\001' in
      Bytes.set mark 0 '\000';
      let switches = Array.of_list (List.filter (fun sw -> sw <> 0) (Graph.switch_ids g)) in
      let no_spine0 = Adjacency.of_cables ~switches (Adjacency.induced snap mark) in
      match (Graph.host_location g red_a, Graph.host_location g red_b) with
      | Some src_loc, Some dst_loc ->
        Option.bind (Adjacency.shortest_route no_spine0 ~src:src_loc.sw ~dst:dst_loc.sw)
          (Path.of_route no_spine0 ~src:red_a ~src_loc ~dst:red_b ~dst_loc)
      | None, _ | _, None -> None
    in
    let candidate = Option.value via_blue ~default:any_path in
    Format.printf "red app submits a route through blue's spine: %a@." Path.pp candidate;
    (match Virtual_net.verifier vnet ~tenant:"red" ~src:red_a ~dst:red_b with
    | Some v -> (
      match Verifier.verify v candidate with
      | Ok () -> print_endline "  verifier: ACCEPTED (isolation broken!)"
      | Error violation ->
        Format.printf "  verifier: rejected — %a@." Verifier.pp_violation violation)
    | None -> print_endline "  no verifier for tenant")
  | None -> ());

  (* Cross-tenant traffic has no route at all inside either slice. *)
  let blue_c = List.nth blue_hosts 0 in
  (match Virtual_net.serve vnet ~tenant:"red" ~src:red_a ~dst:blue_c with
  | Some _ -> print_endline "red -> blue: path served (unexpected!)"
  | None -> Printf.printf "red H%d -> blue H%d: refused — hosts outside the slice.\n" red_a blue_c)
