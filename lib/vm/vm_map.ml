open Fbufs_sim
module Comp = Fbufs_metrics.Component

type entry = {
  mutable frame : Phys_mem.frame_id option;
  mutable prot : Prot.t;
  mutable cow : bool;
  mutable zero_fill : bool;
}

type t = {
  m : Machine.t;
  name : string;
  pmap : Pmap.t;
  table : entry Ptable.t;
  mutable next_private_vpn : int;
}

exception
  Protection_violation of { domain : string; vaddr : int; write : bool }

(* Private mappings start at 16 MB; the fbuf region (managed by the core
   library) lives at a much higher, globally agreed address. *)
let private_base_vpn = 0x1000

let create m ~name ~asid =
  {
    m;
    name;
    pmap = Pmap.create m ~asid;
    table = Ptable.create ();
    next_private_vpn = private_base_vpn;
  }

let name t = t.name
let pmap t = t.pmap
let machine t = t.m

let charge_range_op ?comp t =
  Machine.charge ~kind:"vm.range_op" ?comp t.m t.m.cost.Cost_model.vm_range_op;
  Stats.incr t.m.stats "vm.range_op"

let charge_page_op ?comp t =
  Machine.charge ~kind:"vm.page_op" ?comp t.m t.m.cost.Cost_model.vm_page_op;
  Stats.incr t.m.stats "vm.page_op"

let reserve_private t ~npages =
  charge_range_op ~comp:Comp.Alloc t;
  let base = t.next_private_vpn in
  t.next_private_vpn <- base + npages;
  base

let map_zero_fill t ~vpn ~npages =
  charge_range_op ~comp:Comp.Map t;
  for i = 0 to npages - 1 do
    charge_page_op ~comp:Comp.Map t;
    Ptable.set t.table (vpn + i)
      { frame = None; prot = Prot.Read_write; cow = false; zero_fill = true }
  done

let map_frame t ~vpn ~frame ~prot ~eager =
  charge_page_op ~comp:Comp.Map t;
  Ptable.set t.table vpn
    { frame = Some frame; prot; cow = false; zero_fill = false };
  if eager then
    Pmap.enter t.pmap ~vpn ~frame ~writable:(Prot.can_write prot)

let protect t ~vpn ~npages ~prot =
  charge_range_op ~comp:Comp.Secure t;
  for i = 0 to npages - 1 do
    match Ptable.find t.table (vpn + i) with
    | None -> invalid_arg "Vm_map.protect: page not mapped"
    | Some e ->
        charge_page_op ~comp:Comp.Secure t;
        e.prot <- prot;
        if Pmap.lookup t.pmap ~vpn:(vpn + i) <> None then
          if Prot.can_read prot then
            Pmap.protect t.pmap ~vpn:(vpn + i)
              ~writable:(Prot.can_write prot && not e.cow)
          else ignore (Pmap.remove t.pmap ~vpn:(vpn + i))
  done

let free_frame t f =
  (* The free-pool charge applies only when this reference is the last. *)
  if Phys_mem.refcount t.m.pmem f = 1 then begin
    Machine.charge ~comp:Comp.Alloc t.m t.m.cost.Cost_model.page_free;
    Stats.incr t.m.stats "vm.page_free"
  end;
  Phys_mem.decref t.m.pmem f

let unmap t ~vpn ~npages ~free_frames =
  charge_range_op ~comp:Comp.Unmap t;
  (* Walk the range backwards so freed frames land on the physical
     free stack in reverse page order: a subsequent same-size allocation
     of this address range pops them back page 0..n-1 and re-creates the
     identical vpn -> frame translations, which is what turns the queued
     TLB shootdowns into cancellations. Per-page charges are symmetric,
     so the direction is cost-invisible. *)
  for i = npages - 1 downto 0 do
    match Ptable.find t.table (vpn + i) with
    | None -> ()
    | Some e ->
        charge_page_op ~comp:Comp.Unmap t;
        ignore (Pmap.remove t.pmap ~vpn:(vpn + i));
        (match e.frame with
        | Some f when free_frames -> free_frame t f
        | Some _ | None -> ());
        Ptable.remove t.table (vpn + i)
  done

let copy_cow ~src ~dst ~vpn ~npages =
  charge_range_op ~comp:Comp.Map src;
  charge_range_op ~comp:Comp.Map dst;
  for i = 0 to npages - 1 do
    let p = vpn + i in
    match Ptable.find src.table p with
    | None -> invalid_arg "Vm_map.copy_cow: source page not mapped"
    | Some e ->
        charge_page_op ~comp:Comp.Map src;
        charge_page_op ~comp:Comp.Map dst;
        (match e.frame with
        | Some f ->
            Phys_mem.incref src.m.pmem f;
            Ptable.set dst.table p
              { frame = Some f; prot = e.prot; cow = true; zero_fill = false };
            e.cow <- true;
            (* Lazy physical-map update: invalidate rather than downgrade,
               leaving both sides to fault their entries back in. *)
            ignore (Pmap.remove src.pmap ~vpn:p)
        | None ->
            (* Unmaterialized zero-fill page: both sides keep private
               zero-fill semantics; no sharing needed. *)
            Ptable.set dst.table p
              { frame = None; prot = e.prot; cow = false; zero_fill = true })
  done

let convert_zero_fill t ~vpn ~npages =
  charge_range_op ~comp:Comp.Unmap t;
  for i = 0 to npages - 1 do
    match Ptable.find t.table (vpn + i) with
    | None -> invalid_arg "Vm_map.convert_zero_fill: page not mapped"
    | Some e ->
        charge_page_op ~comp:Comp.Unmap t;
        ignore (Pmap.remove t.pmap ~vpn:(vpn + i));
        (match e.frame with Some f -> free_frame t f | None -> ());
        e.frame <- None;
        e.cow <- false;
        e.zero_fill <- true
  done

let mapped t ~vpn = Ptable.mem t.table vpn

let prot_of t ~vpn =
  Option.map (fun e -> e.prot) (Ptable.find t.table vpn)

let frame_of t ~vpn =
  Option.bind (Ptable.find t.table vpn) (fun e -> e.frame)

let entry_count t = Ptable.length t.table

let release_range t ~vpn ~npages = unmap t ~vpn ~npages ~free_frames:true

type fault_result = Resolved | Violation

let trace_fault t ~vpn ~write outcome =
  if Machine.tracing t.m then
    Machine.trace_instant t.m ~domain:t.name
      ~args:
        [
          ("vpn", Fbufs_trace.Trace.Int vpn);
          ("write", Fbufs_trace.Trace.Str (if write then "w" else "r"));
          ("outcome", Fbufs_trace.Trace.Str outcome);
        ]
      "vm.fault"

let fault t ~vpn ~write =
  Machine.charge ~kind:"vm.fault_trap" ~comp:Comp.Map t.m
    t.m.cost.Cost_model.fault_trap;
  Stats.incr t.m.stats "vm.fault";
  match Ptable.find t.table vpn with
  | None ->
      trace_fault t ~vpn ~write "violation";
      Violation
  | Some e ->
      let need = if write then Prot.can_write e.prot else Prot.can_read e.prot in
      if not need then begin
        trace_fault t ~vpn ~write "violation";
        Violation
      end
      else begin
        charge_page_op ~comp:Comp.Map t;
        (match e.frame with
        | None ->
            (* Zero-fill materialization: allocate and clear a frame. *)
            assert e.zero_fill;
            Machine.charge ~kind:"page.alloc" ~comp:Comp.Alloc t.m
              t.m.cost.Cost_model.page_alloc;
            Machine.charge ~kind:"page.zero" ~comp:Comp.Zero t.m
              t.m.cost.Cost_model.page_zero;
            Stats.incr t.m.stats "vm.zero_fill";
            trace_fault t ~vpn ~write "zero_fill";
            let f = Phys_mem.alloc t.m.pmem in
            Phys_mem.zero t.m.pmem f;
            e.frame <- Some f;
            e.zero_fill <- false;
            Pmap.enter t.pmap ~vpn ~frame:f ~writable:(Prot.can_write e.prot)
        | Some f when write && e.cow ->
            if Phys_mem.refcount t.m.pmem f = 1 then begin
              (* Sharing already collapsed: claim the frame in place. *)
              Stats.incr t.m.stats "vm.cow_claim";
              trace_fault t ~vpn ~write "cow_claim";
              e.cow <- false;
              Pmap.enter t.pmap ~vpn ~frame:f ~writable:true
            end
            else begin
              (* Physical copy: the cost COW was supposed to avoid. *)
              Machine.charge ~kind:"page.alloc" ~comp:Comp.Alloc t.m
                t.m.cost.Cost_model.page_alloc;
              Machine.charge ~kind:"vm.cow_copy" ~comp:Comp.Copy t.m
                (float_of_int t.m.cost.Cost_model.page_size
                *. t.m.cost.Cost_model.copy_per_byte);
              Stats.incr t.m.stats "vm.cow_copy";
              trace_fault t ~vpn ~write "cow_copy";
              let nf = Phys_mem.alloc t.m.pmem in
              Phys_mem.copy_frame t.m.pmem ~src:f ~dst:nf;
              Phys_mem.decref t.m.pmem f;
              e.frame <- Some nf;
              e.cow <- false;
              Pmap.enter t.pmap ~vpn ~frame:nf ~writable:true
            end
        | Some f ->
            (* Lazily invalidated or never-entered translation. COW pages
               are entered read-only so a later write faults again. *)
            trace_fault t ~vpn ~write "refill";
            let writable = Prot.can_write e.prot && not e.cow in
            Pmap.enter t.pmap ~vpn ~frame:f ~writable);
        Resolved
      end
