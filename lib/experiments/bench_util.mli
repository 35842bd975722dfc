(** Thin wrapper over Bechamel: measure one thunk's per-run cost. *)

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
