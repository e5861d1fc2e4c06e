(** Bench-trajectory trend gate.

    Given the committed [BENCH_*.json] snapshots in chronological order,
    each benchmark's ns/run series gets (1) an ordinary-least-squares
    slope, normalized to percent of the series mean per step, and (2) a
    two-segment changepoint (the split minimizing summed squared error,
    with a minimum segment length of one point on each side). A
    benchmark {e regresses} when the post-changepoint mean exceeds the
    pre-changepoint mean by more than the tolerance — a step regression
    a generous pairwise tolerance would wave through accumulates no
    matter how it is split across adjacent snapshots — or when the
    benchmark was present earlier but is missing from the latest
    snapshot. On two snapshots this is the pairwise comparison: a
    benchmark regresses when new ns/run exceeds old by more than the
    tolerance, or when it has no ns/run in the new snapshot.

    All snapshots must come from the same collection machine; runner
    speed never enters. *)

type row = { name : string; ns_per_run : float option; r_square : float option }
(** One benchmark of a snapshot (the JSON emitted by [bench/main.ml
    --json]). *)

exception Bad_snapshot of string

val load_file : string -> row list
(** Raises {!Bad_snapshot} on a snapshot that is not a list of named
    entries, [Fbufs_trace.Json.Parse_error] on malformed JSON and
    [Sys_error] when the file cannot be read. *)

type verdict = {
  bench : string;
  n : int;  (** points present in the series *)
  first_ns : float;
  last_ns : float;
  slope_pct : float;  (** OLS slope, percent of series mean per step *)
  change_at : int option;
      (** series index of the first post-changepoint point (n >= 3) *)
  pre_mean : float;
  post_mean : float;
  delta_pct : float;  (** (post − pre)/pre × 100 across the changepoint *)
  regressed : bool;
  missing_latest : bool;
}

type result = {
  files : string list;
  verdicts : verdict list;  (** sorted by benchmark name *)
  tolerance_pct : float;
  failed : bool;
}

val analyze_rows :
  named:(string * row list) list ->
  tolerance_pct:float ->
  result
(** [named] pairs a snapshot label with its rows, oldest first. Raises
    [Invalid_argument] on fewer than two snapshots. *)

val analyze : files:string list -> tolerance_pct:float -> result
(** {!analyze_rows} over {!load_file} of each path; raises as that
    loader on malformed snapshots. *)

val render : result -> string
(** Fixed-width table plus a PASS/FAIL trailer line. *)

val to_json : result -> Fbufs_trace.Json.t
(** Machine-readable verdict (the CI artifact). *)
