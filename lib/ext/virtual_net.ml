open Dumbnet_topology
open Types
open Dumbnet_host
module Topo_store = Dumbnet_control.Topo_store

type tenant = {
  switches : Switch_set.t;
  hosts : host_id list;
}

type t = {
  controller : Controller.t;
  tenants : (string, tenant) Hashtbl.t;
}

let create ~controller () = { controller; tenants = Hashtbl.create 8 }

let add_tenant t ~name ~switches ~hosts =
  if Hashtbl.mem t.tenants name then invalid_arg "Virtual_net.add_tenant: duplicate tenant";
  Hashtbl.replace t.tenants name { switches; hosts }

let tenants t = Hashtbl.fold (fun name _ acc -> name :: acc) t.tenants [] |> List.sort compare

let tenant_of_host t h =
  Hashtbl.fold
    (fun name tenant acc ->
      match acc with
      | Some _ -> acc
      | None -> if List.mem h tenant.hosts then Some name else None)
    t.tenants None

(* The tenant's view: the fabric with every link touching a foreign
   switch taken down. *)
let restricted_graph t tenant =
  let g = Graph.copy (Topo_store.graph (Controller.store t.controller)) in
  List.iter
    (fun (key, up) ->
      if up then begin
        let a, b = Link_key.ends key in
        if
          (not (Switch_set.mem a.sw tenant.switches))
          || not (Switch_set.mem b.sw tenant.switches)
        then Graph.set_link_state g a ~up:false
      end)
    (Graph.switch_links g);
  g

let find_tenant t name = Hashtbl.find_opt t.tenants name

let serve t ~tenant ~src ~dst =
  match find_tenant t tenant with
  | None -> None
  | Some ten ->
    if List.mem src ten.hosts && List.mem dst ten.hosts then
      Pathgraph.generate (restricted_graph t ten) ~src ~dst
    else None

let verifier t ~tenant ~src ~dst =
  match find_tenant t tenant with
  | None -> None
  | Some ten -> (
    let g = restricted_graph t ten in
    match (Graph.host_location g src, Graph.host_location g dst) with
    | Some src_loc, Some dst_loc ->
      Some
        (Verifier.create ~allowed_switches:ten.switches
           ~view:(Graph.adjacency g) ~src_loc ~dst_loc ())
    | None, _ | _, None -> None)

let isolated t ~tenant path =
  match find_tenant t tenant with
  | None -> false
  | Some ten -> List.for_all (fun sw -> Switch_set.mem sw ten.switches) (Path.switches path)
