open Dumbnet_topology
open Dumbnet_topology.Types
open Dumbnet_sim
open Dumbnet_host
module Rng = Dumbnet_util.Rng

type t = {
  built : Builder.built;
  eng : Engine.t;
  net : Network.t;
  agents : (host_id, Agent.t) Hashtbl.t;
  ctrl : Controller.t;
  disco : Dumbnet_control.Discovery.result;
  rng : Rng.t;
}

let engine t = t.eng

let network t = t.net

let controller t = t.ctrl

let discovery t = t.disco

let hosts t = t.built.Builder.hosts

let controller_host t = t.built.Builder.controller

let agent t h =
  match Hashtbl.find_opt t.agents h with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Fabric.agent: unknown host %d" h)

let rng t = t.rng

let now_ns t = Engine.now t.eng

let run ?for_ns t =
  match for_ns with
  | None -> Engine.run t.eng
  | Some d -> Engine.run ~until_ns:(Engine.now t.eng + d) t.eng

let create ?config ?(seed = 42) ?k ?s ?eps ?jobs ?replicas ?coalesce_ns
    ?(packet_level_discovery = false) built =
  let rng = Rng.create seed in
  let eng = Engine.create () in
  let net = Network.create ?config ~engine:eng ~graph:built.Builder.graph () in
  let agents = Hashtbl.create 64 in
  List.iter
    (fun h ->
      Hashtbl.replace agents h (Agent.create ?k ~network:net ~rng:(Rng.split rng) ~self:h ()))
    built.Builder.hosts;
  let ctrl_agent =
    match Hashtbl.find_opt agents built.Builder.controller with
    | Some a -> a
    | None -> invalid_arg "Fabric.create: controller host has no agent"
  in
  let max_ports =
    List.fold_left
      (fun acc sw -> max acc (Graph.ports_of built.Builder.graph sw))
      1
      (Graph.switch_ids built.Builder.graph)
  in
  let disco =
    match
      Controller.discover ~packet_level:packet_level_discovery ~agent:ctrl_agent ~max_ports ()
    with
    | Some d -> d
    | None -> failwith "Fabric.create: topology discovery failed (controller detached?)"
  in
  let ctrl =
    Controller.create ?replicas ?s ?eps ?jobs ?coalesce_ns ~agent:ctrl_agent
      ~topology:disco.Dumbnet_control.Discovery.topology
      ~hosts:built.Builder.hosts ()
  in
  Controller.set_prober ctrl (fun tags ->
      Dumbnet_control.Probe_walk.probe (Network.graph net) ~origin:built.Builder.controller
        ~tags);
  Controller.bootstrap_push ctrl;
  Engine.run eng;
  { built; eng; net; agents; ctrl; disco; rng }

let send t ~src ~dst ?(flow = 0) ?(seq = 0) ~size () =
  Agent.send_data (agent t src) ~dst ~flow ~seq ~size ()

let fail_link t le = Network.fail_link t.net le

let restore_link t le = Network.restore_link t.net le
