(** What the bench harnesses share: timing, and the one report path
    (JSON, files, gates) that [bench perf], [bench scale] and
    [bench survivability] declare their rows, columns and gates to. *)

val measure_ns : name:string -> (unit -> 'a) -> float
(** Nanoseconds per call, OLS fit over monotonic-clock samples. *)

val parse_max_regression : string option -> (float, string) result
(** The throughput gates' tolerance from the value of
    [DUMBNET_PERF_MAX_REGRESSION]: unset is 2.0; anything else must
    parse as a finite number > 0. A NaN, infinite or non-positive
    factor would make every [ops < baseline /. factor] gate vacuous,
    so it is an error, like text that is no number at all. *)

val max_regression : unit -> float
(** {!parse_max_regression} of the environment. On an invalid value it
    prints the reason to stderr and exits with status 2. *)

val quick : bool ref
(** [bench --quick]: budgets shrink and {!enforce} arms the gates. *)

val budget_s : unit -> float
(** Wall seconds per throughput measurement: 0.2 under {!quick}, else 1.0. *)

val ops_per_sec : ?batch:int -> budget_s:float -> (unit -> 'a) -> float
(** Calls/sec of [f] over ~[budget_s] seconds after one warmup call;
    [batch] calls run between clock reads. *)

val percentile : float array -> float -> float
(** Nearest-rank [q]-quantile ([q] in [\[0,1\]]) of an ascending array;
    0. when empty. *)

val assoc : string -> (string * float) list -> float
(** A baseline by metric name, 0. when there is none. *)

(** {1 Reports} *)

type json =
  | Bool of bool
  | Int of int
  | Float of int * float  (** decimals printed, value *)
  | String of string
  | List of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Newline-terminated. The top-level object and the objects directly in
    it print one key per line, a list holding objects one element per
    line; everything else stays inline. *)

val write_reports : (string * string) list -> unit
(** Writes each [(path, contents)] and notes the paths written. *)

val regressions :
  max_regression:float -> committed:(string * float) list -> unit:string ->
  (string * float) list -> string list
(** A failure message per measured [(name, value)] below its committed
    baseline divided by [max_regression]; names with no baseline pass. *)

val enforce : prefix:string -> string list -> unit
(** Under {!quick}: prints each failure as ["<prefix>: <msg>"], then
    exits 1 if there was any. Otherwise does nothing. *)
