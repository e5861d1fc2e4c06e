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
  mutable obs : Observer.t;
  mutable comp_ctx : Component.t option;
}

type probe = t -> Observer.t

(* The probes installed by the enclosing [with_probe] brackets, outermost
   first: the only ambient observability state. *)
let installed : probe list ref = ref []

let with_probe p f =
  let saved = !installed in
  installed := saved @ [ p ];
  Fun.protect ~finally:(fun () -> installed := saved) f

let create ?(name = "host") ?(cost = Cost_model.decstation_5000_200)
    ?(nframes = 4096) ?(tlb_entries = 64) ?(seed = 42) () =
  let rng = Rng.create seed in
  let m =
    {
      name;
      clock = Clock.create ();
      cost;
      pmem = Phys_mem.create ~page_size:cost.Cost_model.page_size ~nframes;
      tlb = Tlb.create ~entries:tlb_entries (Rng.split rng);
      stats = Stats.create ();
      rng;
      busy = { busy_us = 0.0 };
      next_asid = 1;
      next_id = 1;
      obs = Observer.nop;
      comp_ctx = None;
    }
  in
  List.iter (fun p -> m.obs <- Observer.both m.obs (p m)) !installed;
  m

let tracing m = m.obs.traced
let spanning m = m.obs.spans != Observer.Unrecorded

(* Sequence point: a place where the system's invariants are expected to
   hold (an IPC reply delivered, a transfer secured, a pageout sweep
   done). The online monitors hang off this; unobserved, the cost is one
   pointer compare. *)
let seq_point m site = if m.obs != Observer.nop then m.obs.seq_point site

let with_comp m c f =
  let saved = m.comp_ctx in
  m.comp_ctx <- Some c;
  Fun.protect ~finally:(fun () -> m.comp_ctx <- saved) f

let charge ?kind ?comp m us =
  let obs = m.obs in
  (* A surrounding [with_comp] context wins over the call site's tag:
     e.g. the page allocation inside aggregate-object deserialization is
     DAG-support cost, not allocator cost. *)
  if obs != Observer.nop then
    obs.charge kind (match m.comp_ctx with Some _ as c -> c | None -> comp) us;
  Clock.advance m.clock us;
  m.busy.busy_us <- m.busy.busy_us +. us;
  if obs != Observer.nop then obs.tick ()

let charge_n ?kind ?comp m n us = charge ?kind ?comp m (float_of_int n *. us)

let trace_instant m ?domain ?path_id ?args kind =
  if m.obs != Observer.nop then m.obs.instant domain path_id args kind

let trace_complete m ~since ?domain ?path_id ?args kind =
  if m.obs != Observer.nop then m.obs.slice since domain path_id args kind

(* Causal span plumbing. Ids are 0 and the calls do nothing when no span
   sink observes the machine, so instrumentation sites need no guards.
   Spans carry the transfer context that {!charge} attributes cost
   into. *)

let transfer_begin m ?domain ?path_id label =
  if m.obs.spans == Observer.Unrecorded then 0
  else m.obs.span 0 (Observer.Transfer_begin { domain; path_id; label })

let transfer_end m tid =
  if m.obs.spans != Observer.Unrecorded then
    ignore (m.obs.span 0 (Observer.Transfer_end tid))

let with_transfer m ?domain ?path_id label f =
  if m.obs.spans == Observer.Unrecorded then f ()
  else
    let tid = transfer_begin m ?domain ?path_id label in
    Fun.protect ~finally:(fun () -> transfer_end m tid) f

let span_enter m ?domain ?path_id kind =
  if m.obs.spans == Observer.Unrecorded then 0
  else m.obs.span 0 (Observer.Enter { domain; path_id; kind })

let span_exit m id =
  if m.obs.spans != Observer.Unrecorded then
    ignore (m.obs.span 0 (Observer.Exit id))

let span_adopt m ~transfer ?follows ?domain ?path_id kind =
  if m.obs.spans == Observer.Unrecorded then 0
  else
    m.obs.span 0 (Observer.Adopt { transfer; follows; domain; path_id; kind })

let span_flight m ~transfer ~follows ~start_us ~end_us ?path_id kind =
  if m.obs.spans == Observer.Unrecorded then 0
  else
    m.obs.span 0
      (Observer.Flight { transfer; follows; start_us; end_us; path_id; kind })

let current_transfer m =
  if m.obs.spans == Observer.Unrecorded then 0
  else m.obs.span 0 Observer.Current

let elapse_to m t =
  Clock.advance_to m.clock t;
  if m.obs != Observer.nop then m.obs.tick ()

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
    trace_instant m ~args:[ ("entries", Observer.Int n) ] "tlb.pressure";
  for i = 0 to n - 1 do
    Tlb.insert m.tlb ~asid:0 ~vpn:(0x70000 + (i * 7) + Rng.int m.rng 5)
      ~writable:false
  done
