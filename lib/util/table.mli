(** Plain-text table rendering for the benchmark harness output.

    Columns are sized to their widest cell; headers are separated by a
    rule. Used to print each reproduced paper table/figure as rows. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells; longer
    rows raise [Invalid_argument]. *)

val of_rows : string list -> string list list -> t
(** [create] followed by [add_row] of each row, in order. *)

val render : t -> string

val print : t -> unit
(** [render] followed by a newline on stdout. *)

val markdown : t -> string
(** The table as GitHub markdown: a header line, a rule that left-aligns
    the first column and right-aligns the rest ([---], then [---:]),
    then one line per row. *)
