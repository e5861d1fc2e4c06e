open Fbufs_sim
open Fbufs_vm
open Fbufs
module Comp = Fbufs_metrics.Component

type mode = Rebuild | Integrated

type facility = Mach | Urpc

type conn = {
  region : Region.t;
  src : Pd.t;
  dst : Pd.t;
  mode : mode;
  facility : facility;
  auto_free_dst : bool;
  meta_alloc : Allocator.t option;
  m : Machine.t;
  mutable pending : Fbuf.t list;
}

let threshold = 64

let connect region ~src ~dst ?(mode = Rebuild) ?(facility = Mach)
    ?(auto_free_dst = false) () =
  let meta_alloc =
    match mode with
    | Rebuild -> None
    | Integrated ->
        Some
          (Allocator.create region
             ~path:(Path.create [ src; dst ])
             ~variant:Fbuf.cached_volatile ())
  in
  {
    region;
    src;
    dst;
    mode;
    facility;
    auto_free_dst;
    meta_alloc;
    m = Region.machine region;
    pending = [];
  }

let facility c = c.facility
let meta_allocator c = c.meta_alloc

let src c = c.src
let dst c = c.dst
let mode c = c.mode

let pending_deallocs c = List.length c.pending

let process_pending c =
  List.iter
    (fun fb ->
      Stats.incr c.m.Machine.stats "ipc.dealloc_processed";
      Transfer.free fb ~dom:c.dst)
    (List.rev c.pending);
  c.pending <- []

let explicit_flush c =
  if c.pending <> [] then begin
    if Machine.tracing c.m then
      Machine.trace_instant c.m ~domain:c.dst.Pd.name
        ~args:[ ("pending", Fbufs_trace.Trace.Int (List.length c.pending)) ]
        "ipc.dealloc_flush";
    Machine.charge ~kind:"ipc.call" ~comp:Comp.Ipc c.m
      c.m.cost.Cost_model.ipc_call;
    Machine.charge ~kind:"ipc.reply" ~comp:Comp.Ipc c.m
      c.m.cost.Cost_model.ipc_reply;
    Stats.incr c.m.Machine.stats "ipc.explicit_dealloc_msg";
    process_pending c
  end

let flush_deallocs c = explicit_flush c

let free_deferred c msg =
  List.iter
    (fun (fb : Fbuf.t) ->
      if Pd.equal (Fbuf.originator fb) c.src then begin
        Stats.incr c.m.Machine.stats "ipc.dealloc_deferred";
        c.pending <- fb :: c.pending
      end
      else Transfer.free fb ~dom:c.dst)
    (Fbufs_msg.Msg.fbufs msg);
  if List.length c.pending >= threshold then explicit_flush c

let node_bytes msg = Fbufs_msg.Integrated.node_count msg * Fbufs_msg.Integrated.node_size

let crossing_costs c =
  let cost = c.m.Machine.cost in
  match c.facility with
  | Mach ->
      ( cost.Cost_model.ipc_call,
        cost.Cost_model.ipc_reply,
        cost.Cost_model.ipc_tlb_footprint )
  | Urpc ->
      ( cost.Cost_model.urpc_call,
        cost.Cost_model.urpc_reply,
        cost.Cost_model.urpc_tlb_footprint )

let facility_name = function Mach -> "mach" | Urpc -> "urpc"

let call c msg ~handler =
  let cost = c.m.Machine.cost in
  let call_cost, reply_cost, footprint = crossing_costs c in
  (* One trace slice covers the whole crossing: control transfer in,
     transfer of the message's buffers, handler execution, and the reply. *)
  let t0 = Machine.now c.m in
  (* Causal span for the crossing. The caller's transfer context usually
     reaches here down the stack; a call made outside any context (a
     proxy invoked from a detached continuation) adopts the transfer
     carried by the message's first fbuf. *)
  let csp =
    if not (Machine.spanning c.m) then 0
    else if Machine.current_transfer c.m <> 0 then
      Machine.span_enter c.m ~domain:c.src.Pd.name "ipc.call"
    else
      let tid =
        match Fbufs_msg.Msg.fbufs msg with
        | fb :: _ -> fb.Fbuf.xfer
        | [] -> 0
      in
      Machine.span_adopt c.m ~transfer:tid ~domain:c.src.Pd.name "ipc.call"
  in
  Machine.charge ~kind:"ipc.crossing" ~comp:Comp.Ipc c.m call_cost;
  Stats.incr c.m.Machine.stats "ipc.call";
  (match c.mode with
  | Rebuild ->
      (* Flatten to an fbuf list, marshal one descriptor per buffer, and
         let the receiving side reconstruct the aggregate. *)
      let fbs = Fbufs_msg.Msg.fbufs msg in
      Machine.charge ~kind:"ipc.marshal" ~comp:Comp.Ipc c.m
        (float_of_int (List.length fbs) *. cost.Cost_model.ipc_per_fbuf);
      List.iter (fun fb -> Transfer.send fb ~src:c.src ~dst:c.dst) fbs;
      Machine.domain_crossing_tlb_pressure ~entries:footprint c.m;
      handler msg;
      if c.auto_free_dst then Fbufs_msg.Msg.free_held msg ~dom:c.dst
  | Integrated ->
      (* Everything spent building, walking and reconstructing the
         aggregate object — including the VM and allocator work for the
         meta buffer — is DAG-support cost (Table 1's last row), so the
         whole activity runs under a [Dag] attribution context. *)
      let meta, root_vaddr =
        Machine.with_comp c.m Comp.Dag (fun () ->
            let meta_alloc = Option.get c.meta_alloc in
            let ps = cost.Cost_model.page_size in
            let npages = max 1 ((node_bytes msg + ps - 1) / ps) in
            let meta = Allocator.alloc meta_alloc ~npages in
            (meta, Fbufs_msg.Integrated.serialize msg ~meta ~as_:c.src))
      in
      (* Only the root reference is marshalled; the kernel inspects the
         aggregate to find the buffers to transfer. *)
      Machine.charge ~kind:"ipc.marshal" ~comp:Comp.Ipc c.m
        cost.Cost_model.ipc_per_fbuf;
      let reachable =
        Machine.with_comp c.m Comp.Dag (fun () ->
            Fbufs_msg.Integrated.reachable_fbufs c.region ~as_:c.src
              ~root_vaddr)
      in
      List.iter (fun fb -> Transfer.send fb ~src:c.src ~dst:c.dst) reachable;
      Machine.domain_crossing_tlb_pressure ~entries:footprint c.m;
      let received =
        Machine.with_comp c.m Comp.Dag (fun () ->
            Fbufs_msg.Integrated.deserialize c.region ~as_:c.dst ~root_vaddr)
      in
      handler received;
      if c.auto_free_dst then Fbufs_msg.Msg.free_held received ~dom:c.dst;
      (* The meta buffer served its purpose on both sides. *)
      Transfer.free meta ~dom:c.dst;
      Transfer.free meta ~dom:c.src);
  (* Reply path: control transfer back, carrying deferred deallocation
     notices for free. *)
  Machine.charge ~kind:"ipc.crossing" ~comp:Comp.Ipc c.m reply_cost;
  Machine.domain_crossing_tlb_pressure ~entries:footprint c.m;
  (* The return crossing is the call's synchronization barrier: whatever
     deferred shootdowns survived the roundtrip — and were not cancelled
     by a page being re-entered with its old translation — drain here,
     batched, so staleness is bounded by one roundtrip. (Draining once
     per call rather than at every crossing is what gives a reused page's
     pending shootdown the chance to be cancelled by the receiver's
     re-fault during the call.) *)
  Tlb_sync.drain c.m;
  if c.pending <> [] then begin
    Stats.add c.m.Machine.stats "ipc.dealloc_piggybacked"
      (List.length c.pending);
    if Machine.tracing c.m then
      Machine.trace_instant c.m ~domain:c.dst.Pd.name
        ~args:[ ("pending", Fbufs_trace.Trace.Int (List.length c.pending)) ]
        "ipc.dealloc_piggyback";
    process_pending c
  end;
  if Machine.tracing c.m then
    Machine.trace_complete c.m ~since:t0 ~domain:c.src.Pd.name
      ~args:
        [
          ("dst", Fbufs_trace.Trace.Str c.dst.Pd.name);
          ("facility", Fbufs_trace.Trace.Str (facility_name c.facility));
          ( "mode",
            Fbufs_trace.Trace.Str
              (match c.mode with Rebuild -> "rebuild" | Integrated -> "integrated")
          );
        ]
      "ipc.call";
  Machine.span_exit c.m csp;
  (* The reply delivered and its deferred notices processed: a sequence
     point where cross-domain state is expected consistent. *)
  Machine.seq_point c.m "ipc.reply"
