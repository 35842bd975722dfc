open Dumbnet_topology
open Types
module Frame_pool = Dumbnet_packet.Frame_pool
module Constants = Dumbnet_packet.Constants
module Pool = Dumbnet_util.Pool

(* A frame crossing the shard cut, serialized out of the origin pool.
   Allocated only on cut cables under a parallel pool — the sequential
   path moves frames pool-to-pool directly ({!Frame_pool.transfer}). *)
type msg = {
  m_time : int;
  m_k1 : int;
  m_k2 : int;
  m_info : int;
  m_src : int;
  m_dst : int;
  m_payload : int;
  m_int : bool;
  m_tags : Bytes.t;
  m_stamps : int array;
}

type shard = {
  sid : int;
  (* Pending events keyed by the partition-invariant (time, k1, k2). k2
     packs the frame's origin (an egress or a host NIC) with that
     origin's accepted-frame counter, so keys are globally unique and
     dequeue order never depends on insertion order — the root of the
     determinism contract. The two data lanes carry the event's info
     word ((host lsl 1) lor 1, or ((sw lsl 9) lor in_port) lsl 1) and
     its frame-pool slot. *)
  wheel : Wheel.t;
  fpool : Frame_pool.t;
  st : Network.stats;
  out_msgs : msg list array; (* per destination shard, newest first *)
  mutable out_any : bool;
}

let[@dumbnet.hot] push sh ~time ~k1 ~k2 ~info ~slot =
  Wheel.push sh.wheel ~time ~k1 ~k2 ~d0:info ~d1:slot

(* Earliest pending time, or [max_int] when idle (window tmin scan). *)
let[@dumbnet.hot] min_time sh =
  if Wheel.min_ready sh.wheel then Wheel.min_time sh.wheel else max_int

type control = {
  c_time : int;
  c_seq : int;
  c_eidx : int; (* switch-side egress index of the affected port *)
  c_up : bool;
}

type t = {
  config : Network.config;
  mutable direct : bool; (* sequential run: cross-shard frames skip mailboxes *)
  nshards : int;
  part : Partition.t;
  lookahead : int;
  nsw : int;
  port_base : int array; (* nsw + 1 entries; switch sw owns [base, base + ports] *)
  (* Static cabling per egress index: 0 empty, (h lsl 2) lor 1 host,
     (((peer lsl 9) lor peer_in) lsl 2) lor 2 switch. Link up/down
     lives in [up] and only flips at control barriers. *)
  target : int array;
  up : Bytes.t;
  (* Egress dynamic state, written only by the owning shard. *)
  busy : int array;
  cnt : int array;
  ebytes : int array;
  bw_milli : int; (* uniform bandwidth, milli-Gbps: ser_ns = B*8000/bw *)
  shard_of_sw : int array;
  (* Hosts (co-sharded with their access switch). *)
  h_sw : int array; (* -1 detached *)
  h_port : int array;
  h_next_tx : int array;
  h_busy : int array;
  h_cnt : int array;
  h_digest : int array;
  host_origin : int; (* origin id base for host NICs *)
  (* NIC timing (all hosts run the DumbNet agent). *)
  nic_gap : int;
  nic_tx : int;
  nic_rx : int;
  nic_parse : int;
  shards : shard array;
  mutable controls : control list; (* newest first until [run] sorts *)
  mutable nctrl : int;
  mutable ran : bool;
  mutable injected : int;
}

let default_shards () =
  match Sys.getenv_opt "DUMBNET_SHARDS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | Some _ | None -> 1)
  | None -> 1

let fresh_stats () : Network.stats =
  {
    host_tx = 0;
    ecn_marked = 0;
    host_rx = 0;
    switch_hops = 0;
    queue_drops = 0;
    dataplane_drops = 0;
    bytes_delivered = 0;
    int_stamped = 0;
    silent_drops = 0;
    probe_mirrors = 0;
  }

let create ?(config = Network.default_config) ?shards ~graph:g () =
  let nsw = Graph.num_switches g in
  let nhosts = Graph.num_hosts g in
  let requested = match shards with Some s -> s | None -> default_shards () in
  let part = Partition.compute g ~shards:requested in
  let nshards = part.Partition.shards in
  let lookahead = config.Network.propagation_ns + config.Network.switch_latency_ns in
  if nshards > 1 && lookahead < 1 then
    invalid_arg "Sharded.create: zero lookahead (propagation + switch latency) needs shards = 1";
  let port_base = Array.make (nsw + 1) 0 in
  for sw = 0 to nsw - 1 do
    port_base.(sw + 1) <- port_base.(sw) + Graph.ports_of g sw + 1
  done;
  let nedges = port_base.(nsw) in
  let target = Array.make (max 1 nedges) 0 in
  let up = Bytes.make (max 1 nedges) '\x00' in
  for sw = 0 to nsw - 1 do
    for p = 1 to port_base.(sw + 1) - port_base.(sw) - 1 do
      let e = port_base.(sw) + p in
      (match Graph.endpoint_at g { sw; port = p } with
      | None -> ()
      | Some (Host h) -> target.(e) <- (h lsl 2) lor 1
      | Some (Switch _) -> (
        match Graph.peer_port g { sw; port = p } with
        | Some pe -> target.(e) <- (((pe.sw lsl 9) lor pe.port) lsl 2) lor 2
        | None -> ()));
      if target.(e) <> 0 && Graph.link_up g { sw; port = p } then
        Bytes.set up e '\x01'
    done
  done;
  let h_sw = Array.make (max 1 nhosts) (-1) in
  let h_port = Array.make (max 1 nhosts) 0 in
  List.iter
    (fun h ->
      match Graph.host_location g h with
      | None -> ()
      | Some le ->
        h_sw.(h) <- le.sw;
        h_port.(h) <- le.port)
    (Graph.host_ids g);
  let bw_milli =
    let m = int_of_float ((config.Network.bandwidth_gbps *. 1000.) +. 0.5) in
    if m < 1 then invalid_arg "Sharded.create: bandwidth below 1 Mbps" else m
  in
  let nic = Nic.Dumbnet_agent in
  {
    config;
    direct = false;
    nshards;
    part;
    lookahead;
    nsw;
    port_base;
    target;
    up;
    busy = Array.make (max 1 nedges) 0;
    cnt = Array.make (max 1 nedges) 0;
    ebytes = Array.make (max 1 nedges) 0;
    bw_milli;
    shard_of_sw = part.Partition.of_switch;
    h_sw;
    h_port;
    h_next_tx = Array.make (max 1 nhosts) 0;
    h_busy = Array.make (max 1 nhosts) 0;
    h_cnt = Array.make (max 1 nhosts) 0;
    h_digest = Array.make (max 1 nhosts) 0;
    host_origin = nedges;
    nic_gap = Nic.min_tx_gap_ns nic;
    nic_tx = Nic.tx_latency_ns nic;
    nic_rx = Nic.rx_latency_ns nic;
    nic_parse = Nic.int_parse_ns nic;
    shards =
      Array.init nshards (fun sid ->
          {
            sid;
            wheel = Wheel.create ();
            fpool = Frame_pool.create ();
            st = fresh_stats ();
            out_msgs = Array.make nshards [];
            out_any = false;
          });
    controls = [];
    nctrl = 0;
    ran = false;
    injected = 0;
  }

let shards t = t.nshards

let partition t = t.part

let lookahead_ns t = t.lookahead

(* ------------------------------------------------------------------ *)
(* Timing. Integer-only so the hop loop never touches a float:
   serialization of B bytes at bw milli-Gbps takes B*8000/bw ns, and a
   backlog of d ns holds d*bw/8000 bytes — the same truncations the
   classic engine's float path lands on for the stock bandwidths. *)

let ser_ns t ~bytes = bytes * 8000 / t.bw_milli

let backlog_bytes t ~busy_until ~now = max 0 (busy_until - now) * t.bw_milli / 8000

let pack_k2 ~origin ~counter = (origin lsl 32) lor (counter land 0xFFFFFFFF)

let mix d x = ((d lxor x) * 0x2545F4914F6CDD1D) land max_int

(* ------------------------------------------------------------------ *)

let inject t ~at_ns ~src ~dst ~tags ?(payload_bytes = 1000) ?(int_enabled = false) () =
  if t.ran then invalid_arg "Sharded.inject: simulation already ran";
  if at_ns < 0 then invalid_arg "Sharded.inject: negative time";
  if src < 0 || src >= Array.length t.h_sw || dst < 0 || dst >= Array.length t.h_sw
  then invalid_arg "Sharded.inject: unknown host";
  if payload_bytes < 0 then invalid_arg "Sharded.inject: negative payload";
  let sw = t.h_sw.(src) in
  if sw >= 0 then begin
    let access = t.port_base.(sw) + t.h_port.(src) in
    if Bytes.get t.up access <> '\x00' then begin
      let sh = t.shards.(t.shard_of_sw.(sw)) in
      sh.st.host_tx <- sh.st.host_tx + 1;
      (* NIC pacing, then the host's own out-egress: same arithmetic as
         Network.host_send + transmit, evaluated eagerly in injection
         order (injection happens before the clock starts, so the order
         is partition-invariant by construction). *)
      let start = max at_ns t.h_next_tx.(src) in
      t.h_next_tx.(src) <- start + t.nic_gap;
      let depart = start + t.nic_tx in
      let slot =
        Frame_pool.acquire sh.fpool ~src ~dst ~payload_bytes ~int_enabled
      in
      Frame_pool.set_tags sh.fpool slot tags;
      let bytes = Frame_pool.byte_size sh.fpool slot in
      if
        backlog_bytes t ~busy_until:t.h_busy.(src) ~now:depart
        > t.config.Network.queue_bytes
      then begin
        sh.st.queue_drops <- sh.st.queue_drops + 1;
        Frame_pool.release sh.fpool slot
      end
      else begin
        t.h_cnt.(src) <- t.h_cnt.(src) + 1;
        let sstart = max depart t.h_busy.(src) in
        let finish = sstart + ser_ns t ~bytes in
        t.h_busy.(src) <- finish;
        let arrival =
          finish + t.config.Network.propagation_ns + t.config.Network.switch_latency_ns
        in
        push sh ~time:arrival ~k1:depart
          ~k2:(pack_k2 ~origin:(t.host_origin + src) ~counter:t.h_cnt.(src))
          ~info:(((sw lsl 9) lor t.h_port.(src)) lsl 1)
          ~slot;
        t.injected <- t.injected + 1
      end
    end
  end

let schedule_control t ~at_ns le ~up =
  if t.ran then invalid_arg "Sharded: control event after run";
  if at_ns < 0 then invalid_arg "Sharded: negative control time";
  if le.sw < 0 || le.sw >= t.nsw then invalid_arg "Sharded: unknown switch";
  let ports = t.port_base.(le.sw + 1) - t.port_base.(le.sw) - 1 in
  if le.port < 1 || le.port > ports then invalid_arg "Sharded: port out of range";
  let eidx = t.port_base.(le.sw) + le.port in
  if t.target.(eidx) = 0 then invalid_arg "Sharded: uncabled port";
  t.controls <- { c_time = at_ns; c_seq = t.nctrl; c_eidx = eidx; c_up = up } :: t.controls;
  t.nctrl <- t.nctrl + 1

let fail_link_at t ~at_ns le = schedule_control t ~at_ns le ~up:false

let restore_link_at t ~at_ns le = schedule_control t ~at_ns le ~up:true

let apply_control t c =
  let flag = if c.c_up then '\x01' else '\x00' in
  Bytes.set t.up c.c_eidx flag;
  (* A cable's two directions fail and recover together; host access
     links only have the switch-side direction modeled. *)
  let tv = t.target.(c.c_eidx) in
  if tv land 3 = 2 then begin
    let v = tv lsr 2 in
    Bytes.set t.up (t.port_base.(v lsr 9) + (v land 0x1FF)) flag
  end

(* ------------------------------------------------------------------ *)
(* The hot loop. One wheel pop per hop, no closures, no floats, no
   allocation: a popped event is either a host delivery (fold into the
   digest, recycle the slot) or a switch forwarding decision mirroring
   Dataplane.handle for a plain tag-routed frame — pop the tag, range
   check, port-down drop, INT stamp, drop-tail charge, next arrival. *)

let deliver t sh ~now h slot =
  let fp = sh.fpool in
  sh.st.host_rx <- sh.st.host_rx + 1;
  sh.st.bytes_delivered <- sh.st.bytes_delivered + Frame_pool.byte_size fp slot;
  (* Accumulate through the digest array cell, not a ref — a local ref
     would be a minor allocation per delivery. *)
  let n = Frame_pool.stamp_count fp slot in
  t.h_digest.(h) <-
    mix
      (mix
         (mix
            (mix
               (mix (mix t.h_digest.(h) now) (Frame_pool.src fp slot))
               (Frame_pool.dst fp slot))
            (Frame_pool.payload_bytes fp slot))
         (Frame_pool.remaining_tag_bytes fp slot))
      n;
  for i = 0 to n - 1 do
    t.h_digest.(h) <-
      mix
        (mix
           (mix
              (mix t.h_digest.(h) (Frame_pool.stamp_switch fp slot i))
              (Frame_pool.stamp_port fp slot i))
           (Frame_pool.stamp_queue fp slot i))
        (Frame_pool.stamp_time fp slot i)
  done;
  Frame_pool.release fp slot

let hop t sh ~now ~sw ~in_port:_ slot =
  let fp = sh.fpool in
  sh.st.switch_hops <- sh.st.switch_hops + 1;
  let tagb = Frame_pool.peek_tag fp slot in
  let ports = t.port_base.(sw + 1) - t.port_base.(sw) - 1 in
  if tagb = Constants.tag_end_of_path || tagb > ports then begin
    (* Path ended here, or the tag names a port this switch lacks. *)
    sh.st.dataplane_drops <- sh.st.dataplane_drops + 1;
    Frame_pool.release fp slot
  end
  else begin
    Frame_pool.advance fp slot;
    let eidx = t.port_base.(sw) + tagb in
    if Bytes.get t.up eidx = '\x00' then begin
      sh.st.dataplane_drops <- sh.st.dataplane_drops + 1;
      Frame_pool.release fp slot
    end
    else begin
      let busy = t.busy.(eidx) in
      let backlog = backlog_bytes t ~busy_until:busy ~now in
      if
        Frame_pool.try_stamp fp slot ~switch:sw ~port:tagb ~queue_depth:backlog
          ~timestamp_ns:now
      then sh.st.int_stamped <- sh.st.int_stamped + 1;
      let bytes = Frame_pool.byte_size fp slot in
      if backlog > t.config.Network.queue_bytes then begin
        sh.st.queue_drops <- sh.st.queue_drops + 1;
        Frame_pool.release fp slot
      end
      else begin
        t.cnt.(eidx) <- t.cnt.(eidx) + 1;
        t.ebytes.(eidx) <- t.ebytes.(eidx) + bytes;
        let sstart = if now > busy then now else busy in
        let finish = sstart + ser_ns t ~bytes in
        t.busy.(eidx) <- finish;
        let k2 = pack_k2 ~origin:eidx ~counter:t.cnt.(eidx) in
        let tv = t.target.(eidx) in
        if tv land 3 = 1 then begin
          (* Host delivery: propagation, then the NIC's receive latency
             plus its INT-region walk, folded into one event. *)
          push sh
            ~time:
              (finish + t.config.Network.propagation_ns + t.nic_rx
              + (t.nic_parse * Frame_pool.stamp_count fp slot))
            ~k1:now ~k2
            ~info:(((tv lsr 2) lsl 1) lor 1)
            ~slot
        end
        else begin
          let v = tv lsr 2 in
          let peer = v lsr 9 in
          let arrival =
            finish + t.config.Network.propagation_ns + t.config.Network.switch_latency_ns
          in
          let dsid = t.shard_of_sw.(peer) in
          if dsid = sh.sid then push sh ~time:arrival ~k1:now ~k2 ~info:(v lsl 1) ~slot
          else if t.direct then begin
            (* Sequential run: the destination scheduler is safe to
               touch from here, so move the frame pool-to-pool with no
               serialization. arrival >= now + lookahead >= the window
               horizon, so the destination never processes it in the
               window it was produced — same barrier semantics as the
               mailbox path. *)
            let dsh = t.shards.(dsid) in
            let nslot = Frame_pool.transfer fp slot ~into:dsh.fpool in
            push dsh ~time:arrival ~k1:now ~k2 ~info:(v lsl 1) ~slot:nslot;
            Frame_pool.release fp slot
          end
          else begin
            (* Cut crossing under a parallel pool: serialize into the
               destination's mailbox, exchanged at the barrier. *)
            sh.out_msgs.(dsid) <-
              {
                m_time = arrival;
                m_k1 = now;
                m_k2 = k2;
                m_info = v lsl 1;
                m_src = Frame_pool.src fp slot;
                m_dst = Frame_pool.dst fp slot;
                m_payload = Frame_pool.payload_bytes fp slot;
                m_int = Frame_pool.int_enabled fp slot;
                m_tags = Frame_pool.export_tags fp slot;
                m_stamps = Frame_pool.export_stamps fp slot;
              }
              :: sh.out_msgs.(dsid);
            sh.out_any <- true;
            Frame_pool.release fp slot
          end
        end
      end
    end
  end

let exec t sh ~now ~info ~slot =
  if info land 1 = 1 then deliver t sh ~now (info lsr 1) slot
  else begin
    let v = info lsr 1 in
    hop t sh ~now ~sw:(v lsr 9) ~in_port:(v land 0x1FF) slot
  end

(* Drain one shard up to (strictly below) [horizon]. The current event
   is popped before it runs, so the hop may push its successor straight
   back into the same wheel. *)
let[@dumbnet.hot] drain t sh ~horizon =
  let w = sh.wheel in
  while Wheel.min_ready w && Wheel.min_time w < horizon do
    let now = Wheel.min_time w in
    let info = Wheel.min_d0 w in
    let slot = Wheel.min_d1 w in
    Wheel.pop w;
    exec t sh ~now ~info ~slot
  done

let exchange t =
  for s = 0 to t.nshards - 1 do
    let sh = t.shards.(s) in
    if sh.out_any then begin
      sh.out_any <- false;
      for d = 0 to t.nshards - 1 do
        match sh.out_msgs.(d) with
        | [] -> ()
        | msgs ->
          sh.out_msgs.(d) <- [];
          let dst = t.shards.(d) in
          List.iter
            (fun m ->
              let slot =
                Frame_pool.import dst.fpool ~src:m.m_src ~dst:m.m_dst
                  ~payload_bytes:m.m_payload ~int_enabled:m.m_int ~tags:m.m_tags
                  ~stamps:m.m_stamps
              in
              push dst ~time:m.m_time ~k1:m.m_k1 ~k2:m.m_k2 ~info:m.m_info
                ~slot)
            (List.rev msgs)
      done
    end
  done

let sort_controls t =
  t.controls <-
    List.sort
      (fun a b ->
        if a.c_time <> b.c_time then compare a.c_time b.c_time
        else compare a.c_seq b.c_seq)
      t.controls

(* shards = 1: the classic shape — one scheduler run dry, controls
   applied in timestamp order before any event at or past their
   instant. No windows, no mailboxes. *)
let run_single t =
  let sh = t.shards.(0) in
  let rec loop controls =
    match controls with
    | c :: rest ->
      drain t sh ~horizon:c.c_time;
      apply_control t c;
      loop rest
    | [] -> drain t sh ~horizon:max_int
  in
  loop t.controls

let run_windows ?pool ~parallel t =
  let rec loop controls =
    let tmin = ref max_int in
    for s = 0 to t.nshards - 1 do
      let mt = min_time t.shards.(s) in
      if mt < !tmin then tmin := mt
    done;
    match controls with
    | c :: rest when c.c_time <= !tmin ->
      (* Global barrier: every shard is idle (all schedulers drained
         below this instant), so flipping link state races with
         nothing. *)
      apply_control t c;
      loop rest
    | _ ->
      if !tmin < max_int then begin
        let horizon =
          let next_ctrl = match controls with [] -> max_int | c :: _ -> c.c_time in
          min next_ctrl (!tmin + t.lookahead)
        in
        (match pool with
        | Some p when parallel ->
          Pool.run_chunks p ~n:t.nshards (fun ~worker:_ ~lo ~hi ->
              for s = lo to hi - 1 do
                drain t t.shards.(s) ~horizon
              done)
        | Some _ | None ->
          for s = 0 to t.nshards - 1 do
            drain t t.shards.(s) ~horizon
          done);
        exchange t;
        loop controls
      end
  in
  loop t.controls

let run ?pool t =
  if not t.ran then begin
    t.ran <- true;
    sort_controls t;
    let parallel =
      match pool with
      | Some p -> Pool.jobs p > 1
      | None -> false
    in
    t.direct <- not parallel;
    if t.nshards = 1 then run_single t else run_windows ?pool ~parallel t
  end

(* ------------------------------------------------------------------ *)

let stats t =
  let acc = fresh_stats () in
  Array.iter
    (fun sh ->
      acc.host_tx <- acc.host_tx + sh.st.host_tx;
      acc.host_rx <- acc.host_rx + sh.st.host_rx;
      acc.switch_hops <- acc.switch_hops + sh.st.switch_hops;
      acc.queue_drops <- acc.queue_drops + sh.st.queue_drops;
      acc.dataplane_drops <- acc.dataplane_drops + sh.st.dataplane_drops;
      acc.bytes_delivered <- acc.bytes_delivered + sh.st.bytes_delivered;
      acc.int_stamped <- acc.int_stamped + sh.st.int_stamped)
    t.shards;
  acc

let hops t = Array.fold_left (fun a sh -> a + sh.st.switch_hops) 0 t.shards

let delivered t = Array.fold_left (fun a sh -> a + sh.st.host_rx) 0 t.shards

let injected t = t.injected

let digest t =
  let d = ref 0x5eed in
  Array.iteri (fun h hd -> d := mix (mix !d h) hd) t.h_digest;
  !d

let live_slots t = Array.fold_left (fun a sh -> a + Frame_pool.live sh.fpool) 0 t.shards
