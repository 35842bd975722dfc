type mode =
  | Native
  | Dpdk_noop
  | Dpdk_mpls
  | Dumbnet_agent

(* A 1450-byte frame at gap g ns sustains 1450*8/g Gbps:
   2144 ns -> 5.41 Gbps, 2234 ns -> 5.19 Gbps. The MPLS header copy is
   the paper's ~4% hit; the DumbNet tag logic on top is negligible
   (sub-10 ns against Table 2's microsecond-scale service times). *)
let[@dumbnet.hot] min_tx_gap_ns = function
  | Native -> 1160 (* line-rate 10 GbE for MTU frames *)
  | Dpdk_noop -> 2144
  | Dpdk_mpls -> 2234
  | Dumbnet_agent -> 2236

let[@dumbnet.hot] tx_latency_ns = function
  | Native -> 15_000
  | Dpdk_noop -> 550_000
  | Dpdk_mpls -> 560_000
  | Dumbnet_agent -> 562_000 (* + find-path/lookup, Table 2 scale *)

let[@dumbnet.hot] rx_latency_ns = function
  | Native -> 15_000
  | Dpdk_noop -> 550_000
  | Dpdk_mpls -> 555_000
  | Dumbnet_agent -> 556_000 (* + ø validation and strip *)

(* Per-stamp cost of walking the telemetry region on receive: one
   fixed-width record copy each, cheap next to the stack traversal. The
   kernel stack pays a little more per touch than the DPDK pipelines. *)
let[@dumbnet.hot] int_parse_ns = function
  | Native -> 40
  | Dpdk_noop | Dpdk_mpls | Dumbnet_agent -> 25

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | Native -> "native"
    | Dpdk_noop -> "no-op DPDK"
    | Dpdk_mpls -> "MPLS only"
    | Dumbnet_agent -> "DumbNet")
