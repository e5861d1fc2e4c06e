(** Layer C: interprocedural, flow-sensitive typestate analysis of fbuf
    handles.

    Each handle moves through the lattice
    [{Fresh, Held, Sent, Secured, Freed, T}] as the abstract interpreter
    walks function bodies; calls to other in-tree functions transition the
    handle through the callee's ownership summary ({!Summary}), computed
    to fixpoint over the call graph's SCCs first. Four rules:

    - {b C1 — use after free / double free}: any fbuf API reaching a
      handle whose every reference was relinquished, or a second
      [Transfer.free] from a domain that already freed.
    - {b C2 — leak on all paths}: a locally allocated handle that is
      relinquished on {e no} path, never stored/captured/passed to an
      unknown callee, and not returned — or one whose sends and frees,
      all made directly in the body, leave references outstanding on
      every exit (a receiver that never frees). (L4 keeps catching the
      some-but-not-all-paths asymmetry; C2 is its interprocedural
      completion for the no-path case.)
    - {b C3 — write after send} (paper section 3.1): the originator
      writing an in-flight payload (the writer's [~as_] matches the
      send's [~src], or either is unknown), or any write after secure.
    - {b C4 — read before secure} (paper section 3.2): reading a
      volatile handle in the [Sent] phase, before [Transfer.secure].

    Soundness caveats (documented, deliberate): aliasing is tracked only
    through [let]-bindings, returns and direct argument passing; branch
    joins go to a silent top on disagreement ([freed_doms] joins by
    intersection); handles stored into data structures, captured by
    closures or passed to unresolved callees escape the analysis
    entirely. The analysis under-approximates — it misses bugs rather
    than invent them.

    Findings are reported only for client code (examples/, lib/harness/,
    lib/demo/, bin/, bench/); summaries are computed over every unit.
    [[@lint.allow "C3 C4"]] on an expression or [let]-binding suppresses
    the named rules within that node's line span. *)

val lint_units : (string * Parsetree.structure) list -> Finding.t list
(** Analyze a whole tree of [(root-relative file, parsetree)] units:
    build the call graph, compute summaries to fixpoint, interpret every
    client-file definition. Sorted with {!Finding.compare}, deduplicated,
    [@lint.allow] spans applied. *)

val lint_unit : file:string -> impl:string -> Finding.t list
(** Single-unit convenience for tests: parse [impl] and run
    {!lint_units} on it alone ([] if it does not parse — Layer A owns
    E0). *)

val summaries :
  (string * Parsetree.structure) list ->
  (string * Summary.fsum) list * int
(** The computed ownership summary of every definition (keyed by qname,
    in definition order) plus the number of fixpoint sweeps — the
    surface the qcheck termination/monotonicity property drives. *)
