open Fbufs_sim
module Comp = Fbufs_metrics.Component

type entry = { frame : Phys_mem.frame_id; writable : bool }

type t = { m : Machine.t; asid : int; table : entry Ptable.t }

(* Deferred/elidable shootdowns (generation-tagged TLB). On: removes of
   TLB-cached translations are queued instead of flushed and cancelled
   outright when the identical translation is re-entered; removes of
   uncached translations pay nothing. Off: every downgrade and remove
   pays the PR6-era immediate per-page shootdown, reproducing the
   paper-faithful numbers byte for byte. *)
let elision_enabled = ref true

(* Chaos fault injection for the differential checker: defer even the
   cached writable downgrade, which leaves a reachable stale *writable*
   translation over a read-only pmap entry — exactly the protection hole
   the paper's security argument forbids. The checker's TLB audit must
   catch this within one step. *)
let chaos_defer_downgrade = ref false

let create m ~asid = { m; asid; table = Ptable.create () }

let asid t = t.asid

let lookup t ~vpn = Ptable.find t.table vpn

let cached t ~vpn =
  Tlb.probe t.m.Machine.tlb ~asid:t.asid ~vpn ~write:false <> Tlb.Miss

(* One immediate per-page shootdown: the PR6-era cost, still paid for
   every non-deferrable invalidation. *)
let shoot_now t ~vpn =
  Machine.charge ~kind:"tlb.shootdown" ~comp:Comp.Tlb_flush t.m
    t.m.cost.Cost_model.tlb_shootdown;
  Stats.incr t.m.stats "tlb.shootdown";
  Tlb.invalidate t.m.tlb ~asid:t.asid ~vpn

(* Each mutation is visible on the trace timeline as the Complete slice
   its [charge ~kind] emits; no separate instant is needed. *)
let enter t ~vpn ~frame ~writable =
  Machine.charge ~kind:"pmap.enter" ~comp:Comp.Map t.m
    t.m.cost.Cost_model.pmap_enter;
  Stats.incr t.m.stats "pmap.enter";
  (match Tlb.find_pending t.m.tlb ~asid:t.asid ~vpn with
  | None -> ()
  | Some p ->
      Tlb.cancel_pending t.m.tlb ~asid:t.asid ~vpn;
      if not (cached t ~vpn) then
        (* The stale entry fell out of the TLB on its own; nothing left
           to shoot down. *)
        Stats.incr t.m.stats "tlb.elided.evicted"
      else if p.Tlb.p_frame = frame && p.Tlb.p_writable = writable then begin
        (* Identical translation re-entered (fbuf reuse): the still-cached
           entry is correct again, so the queued shootdown — and the
           refill the flush would have forced — are both elided. *)
        Stats.incr t.m.stats "tlb.shootdown_cancelled";
        Stats.incr t.m.stats "tlb.elided.reuse"
      end
      else
        (* Translation changed while the old entry may still be cached:
           the deferral window ends here, immediately. *)
        shoot_now t ~vpn);
  Ptable.set t.table vpn { frame; writable }

let protect t ~vpn ~writable =
  match Ptable.find t.table vpn with
  | None -> invalid_arg "Pmap.protect: no entry"
  | Some e ->
      Machine.charge ~kind:"pmap.protect" ~comp:Comp.Secure t.m
        t.m.cost.Cost_model.pmap_protect;
      Stats.incr t.m.stats "pmap.protect";
      if e.writable && not writable then begin
        if not !elision_enabled then shoot_now t ~vpn
        else if cached t ~vpn then
          if !chaos_defer_downgrade then
            (* Fault injection: deferring this one is unsound (see above). *)
            Tlb.defer t.m.tlb ~asid:t.asid ~vpn ~frame:e.frame
              ~writable:e.writable
          else
            (* A cached writable entry another access can still use must
               die before the pmap says read-only: never deferred. *)
            shoot_now t ~vpn
        else
          (* Never cached (or already evicted): the downgrade is visible
             to the next refill for free. *)
          Stats.incr t.m.stats "tlb.elided.uncached"
      end;
      Ptable.set t.table vpn { e with writable }

let remove t ~vpn =
  match Ptable.find t.table vpn with
  | None -> None
  | Some e ->
      Machine.charge ~kind:"pmap.remove" ~comp:Comp.Unmap t.m
        t.m.cost.Cost_model.pmap_remove;
      Stats.incr t.m.stats "pmap.remove";
      if not !elision_enabled then shoot_now t ~vpn
      else if cached t ~vpn then
        (* Deferred-safe: the access path re-consults this pmap on every
           TLB hit, so a stale (non-writable-over-readonly) entry cannot
           be used — queue the shootdown for the next barrier, or for
           cancellation if the identical translation comes back first. *)
        Tlb.defer t.m.tlb ~asid:t.asid ~vpn ~frame:e.frame
          ~writable:e.writable
      else Stats.incr t.m.stats "tlb.elided.uncached";
      Ptable.remove t.table vpn;
      Some e

let entry_count t = Ptable.length t.table
