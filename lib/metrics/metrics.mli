(** Typed metrics registry.

    Metric {e definitions} (name, help, label names, kind) are global and
    registered once at module-initialization time; {e values} live in
    per-run instances ({!t}). A run is metered by installing {!probe};
    instrumented code guards every update on the machine carrying an
    instance ({!of_machine}), so a run without one pays nothing —
    "disabled" is the absence of the instance, not a branch per sample.
    Plain machine events (pmap ops, TLB misses, sends, PDUs, ...) are not
    registry families: they are counted once in each machine's [Stats]
    table, which an instance reads ({!events}).

    Definition names must match [fbufs_[a-z0-9_]+] and be unique; the
    lint rule L6 additionally checks, statically, that registrations use
    literal names at module init. *)

type kind = Counter | Gauge | Sketch

type def = {
  id : int;  (** dense registration index *)
  name : string;
  help : string;
  labels : string list;  (** label {e names}; values are per-cell *)
  kind : kind;
}

val counter : name:string -> help:string -> ?labels:string list -> unit -> def
(** Register a monotone counter. Raises [Invalid_argument] if [name] does
    not match [fbufs_[a-z0-9_]+] or is already registered. *)

val gauge : name:string -> help:string -> ?labels:string list -> unit -> def
(** Register a gauge (set to current level). Raises [Invalid_argument] on
    a bad or duplicate name, as {!counter}. *)

val sketch : name:string -> help:string -> ?labels:string list -> unit -> def
(** Register a distribution metric backed by a mergeable quantile
    {!Fbufs_trace.Sketch} (default relative-error bound). Raises
    [Invalid_argument] on a bad or duplicate name, as {!counter}. *)

val definitions : unit -> def list
(** All registered definitions in registration order. *)

val find_def : string -> def option

(** {1 Instances} *)

type t

val create : unit -> t
(** Fresh instance: all cells zero, empty ledger. *)

val ledger : t -> Ledger.t
(** The cost-attribution ledger carried alongside the counters. *)

val events : t -> ((string * string) * float) list
(** Every metered machine's [Stats] table read now (each machine attaches
    its own when {!probe} meters it, so machine events are counted once,
    there), summed per [(machine, event)] — machines with the same name
    merge — and sorted. *)

val incr : t -> def -> ?labels:string list -> unit -> unit
val add : t -> def -> ?labels:string list -> float -> unit

val set : t -> def -> ?labels:string list -> float -> unit
(** Gauge write (overwrites the cell). *)

val observe : t -> def -> ?labels:string list -> float -> unit
(** Distribution sample into a sketch def's cell; on a scalar def
    behaves like {!add}. *)

val value : t -> def -> labels:string list -> float option
(** Current value of one cell ([None] if never touched). Sketches
    report their sample sum. All three accessors raise
    [Invalid_argument] when the label-value count does not match the
    definition. *)

val value_by_name : t -> name:string -> labels:string list -> float option

val total_by_name : t -> name:string -> float
(** Sum over every label combination; 0 for untouched or unknown names. *)

type sample = {
  def : def;
  labels : string list;
  value : float;
  count : int;  (** number of updates that hit this cell *)
  sketch : Fbufs_trace.Sketch.t option;  (** populated for [Sketch] cells *)
}

val samples : t -> sample list
(** Every touched cell, sorted by definition id then labels. *)

(** {1 Observing machines} *)

val probe : t -> Fbufs_sim.Machine.probe
(** Meter machines into this instance: each attaches its [Stats] table
    when it is created, and every charge lands in the {!ledger} under its
    component ([Other] when untagged) and kind ([""] when untyped). *)

val of_machine : Fbufs_sim.Machine.t -> t option
(** The instance metering a machine (the outermost if several do), which
    the registry families update; [None] on an unmetered machine. *)

val charged_us : Fbufs_sim.Machine.t -> float option
(** The charges that instance received from this one machine, added in
    arrival order like the machine's busy time, so equal to
    [Fbufs_sim.Machine.busy_us] bitwise; unlike {!Ledger.charged_us},
    machines that share a name are not merged. *)
