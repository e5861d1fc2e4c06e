module Trace = Fbufs_trace.Trace

(* All-float record: mutated in place on every charge, no boxing. *)
type busy = { mutable busy_us : float }

type t = {
  name : string;
  clock : Clock.t;
  cost : Cost_model.t;
  pmem : Phys_mem.t;
  tlb : Tlb.t;
  stats : Stats.t;
  rng : Rng.t;
  busy : busy;
  mutable next_asid : int;
  mutable next_id : int;
  mutable trace : Trace.t option;
  mutable metrics : Fbufs_metrics.Metrics.t option;
  mutable spans : Fbufs_span.Span.t option;
  mutable comp_ctx : Fbufs_metrics.Component.t option;
  mutable seq_hook : (t -> string -> unit) option;
  mutable on_tick : (float -> unit) option;
}

let default_trace : Trace.t option ref = ref None
let default_metrics : Fbufs_metrics.Metrics.t option ref = ref None
let default_spans : Fbufs_span.Span.t option ref = ref None
let default_seq_hook : (t -> string -> unit) option ref = ref None
let default_tick : (float -> unit) option ref = ref None

let create ?(name = "host") ?(cost = Cost_model.decstation_5000_200)
    ?(nframes = 4096) ?(tlb_entries = 64) ?(seed = 42) () =
  let rng = Rng.create seed in
  let stats = Stats.create () in
  (* A metered machine's events are counted once, in [stats]; the
     installed instance reads that table instead of keeping a copy. *)
  Option.iter
    (fun mx ->
      Fbufs_metrics.Metrics.add_events mx ~machine:name (fun () ->
          Stats.to_list stats))
    !default_metrics;
  {
    name;
    clock = Clock.create ();
    cost;
    pmem = Phys_mem.create ~page_size:cost.Cost_model.page_size ~nframes;
    tlb = Tlb.create ~entries:tlb_entries (Rng.split rng);
    stats;
    rng;
    busy = { busy_us = 0.0 };
    next_asid = 1;
    next_id = 1;
    trace = !default_trace;
    metrics = !default_metrics;
    spans = !default_spans;
    comp_ctx = None;
    seq_hook = !default_seq_hook;
    on_tick = !default_tick;
  }

let set_trace m tr = m.trace <- tr
let tracing m = m.trace <> None
let metrics m = m.metrics
let set_spans m s = m.spans <- s
let spanning m = m.spans <> None
let spans m = m.spans

(* Sequence point: a place where the system's invariants are expected to
   hold (an IPC reply delivered, a transfer secured, a pageout sweep
   done). The online monitors hang off this; with no hook installed the
   cost is one pointer compare. *)
let seq_point m site =
  match m.seq_hook with None -> () | Some f -> f m site

let with_comp m c f =
  let saved = m.comp_ctx in
  m.comp_ctx <- Some c;
  Fun.protect ~finally:(fun () -> m.comp_ctx <- saved) f

let charge ?kind ?comp m us =
  (* A surrounding [with_comp] context wins over the call site's tag:
     e.g. the page allocation inside aggregate-object deserialization is
     DAG-support cost, not allocator cost. *)
  let eff = match m.comp_ctx with Some _ as c -> c | None -> comp in
  (match (m.trace, kind) with
  | Some tr, Some k ->
      (* [Component.label] returns a literal, so the fast path stores
         no young pointer into the ring. *)
      let comp =
        match eff with
        | Some c -> Fbufs_metrics.Component.label c
        | None -> ""
      in
      Trace.complete_comp tr ~ts_us:(Clock.now m.clock) ~dur_us:us
        ~machine:m.name ~comp k
  | _ -> ());
  (match m.metrics with
  | None -> ()
  | Some mx ->
      let c = match eff with Some c -> c | None -> Fbufs_metrics.Component.Other in
      let k = match kind with Some k -> k | None -> "" in
      Fbufs_metrics.Ledger.charge
        (Fbufs_metrics.Metrics.ledger mx)
        ~machine:m.name ~comp:c ~kind:k us);
  (match m.spans with
  | None -> ()
  | Some s ->
      let c = match eff with Some c -> c | None -> Fbufs_metrics.Component.Other in
      Fbufs_span.Span.on_charge s ~machine:m.name ~comp:c us);
  Clock.advance m.clock us;
  m.busy.busy_us <- m.busy.busy_us +. us;
  match m.on_tick with Some f -> f (Clock.now m.clock) | None -> ()

let charge_n ?kind ?comp m n us = charge ?kind ?comp m (float_of_int n *. us)

let trace_instant m ?domain ?path_id ?args kind =
  match m.trace with
  | None -> ()
  | Some tr ->
      Trace.instant tr ~ts_us:(Clock.now m.clock) ~machine:m.name ?domain
        ?path_id ?args kind

let trace_complete m ~since ?domain ?path_id ?args kind =
  match m.trace with
  | None -> ()
  | Some tr ->
      Trace.complete tr ~ts_us:since
        ~dur_us:(Clock.now m.clock -. since)
        ~machine:m.name ?domain ?path_id ?args kind

(* Causal span plumbing. Ids are 0 and the calls do nothing when no sink
   is attached, so instrumentation sites need no guards. Spans carry the
   transfer context that {!charge} attributes cost into. *)

let transfer_begin m ?domain ?path_id label =
  match m.spans with
  | None -> 0
  | Some s ->
      Fbufs_span.Span.transfer_begin s ~machine:m.name
        ~ts_us:(Clock.now m.clock) ?domain ?path_id label

let transfer_end m tid =
  match m.spans with
  | None -> ()
  | Some s ->
      Fbufs_span.Span.transfer_end s ~machine:m.name ~ts_us:(Clock.now m.clock)
        tid

let with_transfer m ?domain ?path_id label f =
  match m.spans with
  | None -> f ()
  | Some _ ->
      let tid = transfer_begin m ?domain ?path_id label in
      Fun.protect ~finally:(fun () -> transfer_end m tid) f

let span_enter m ?domain ?path_id kind =
  match m.spans with
  | None -> 0
  | Some s ->
      Fbufs_span.Span.enter s ~machine:m.name ~ts_us:(Clock.now m.clock)
        ?domain ?path_id kind

let span_exit m id =
  match m.spans with
  | None -> ()
  | Some s ->
      Fbufs_span.Span.finish s ~machine:m.name ~ts_us:(Clock.now m.clock) id

let span_adopt m ~transfer ?follows ?domain ?path_id kind =
  match m.spans with
  | None -> 0
  | Some s ->
      Fbufs_span.Span.adopt s ~machine:m.name ~ts_us:(Clock.now m.clock)
        ~transfer ?follows ?domain ?path_id kind

let span_flight m ~transfer ~follows ~start_us ~end_us ?path_id kind =
  match m.spans with
  | None -> 0
  | Some s ->
      Fbufs_span.Span.flight s ~transfer ~follows ~start_us ~end_us ?path_id
        kind

let current_transfer m =
  match m.spans with
  | None -> 0
  | Some s -> Fbufs_span.Span.current s ~machine:m.name

let elapse_to ?kind m t =
  (match (m.trace, kind) with
  | Some tr, Some k ->
      let now = Clock.now m.clock in
      if t > now then
        Trace.complete tr ~ts_us:now ~dur_us:(t -. now) ~machine:m.name k
  | _ -> ());
  Clock.advance_to m.clock t;
  match m.on_tick with Some f -> f (Clock.now m.clock) | None -> ()

let now m = Clock.now m.clock

let fresh_asid m =
  let a = m.next_asid in
  m.next_asid <- a + 1;
  a

let fresh_id m =
  let i = m.next_id in
  m.next_id <- i + 1;
  i

let busy_us m = m.busy.busy_us

let checkpoint m = (now m, busy_us m)

let load_since m (t0, busy0) =
  let span = now m -. t0 in
  if span <= 0.0 then 0.0 else Float.min 1.0 ((busy_us m -. busy0) /. span)

(* The kernel's IPC path occupies a distinguished address space (ASID 0)
   and touches a working set of code and data pages on every crossing. *)
let domain_crossing_tlb_pressure ?entries m =
  let n =
    match entries with
    | Some n -> n
    | None -> m.cost.Cost_model.ipc_tlb_footprint
  in
  if tracing m then
    trace_instant m ~args:[ ("entries", Fbufs_trace.Trace.Int n) ]
      "tlb.pressure";
  for i = 0 to n - 1 do
    Tlb.insert m.tlb ~asid:0 ~vpn:(0x70000 + (i * 7) + Rng.int m.rng 5)
      ~writable:false
  done
