(** Plain-text rendering of experiment results, paper-vs-measured. *)

val mbps : bytes:int -> us:float -> float
(** Megabits per second from a byte count and elapsed microseconds. *)

val print_title : string -> unit

val print_columns : string list -> unit
(** Header row followed by a rule. *)

val cell : width:int -> string -> string

val fmt_size : int -> string
(** 4096 -> "4K", 1048576 -> "1M". *)

val fmt_opt : float option -> string
(** "-" for [None]. *)

type series = { name : string; points : (int * float) list }
(** A plotted line: (x, y) pairs — typically (message bytes, Mb/s). *)

val print_series_table : x_label:string -> series list -> unit
(** Figures as aligned text tables: one row per x, one column per series. *)

val print_trace_summary : Fbufs_trace.Trace.t -> unit
(** Per-[(kind, path)] latency table (count, p50/p90/p99/max and total
    simulated us) from the trace's online latency sketches. Prints
    nothing for an event-free trace. *)
