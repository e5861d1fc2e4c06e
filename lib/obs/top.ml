module Machine = Fbufs_sim.Machine
module Mx = Fbufs_metrics.Metrics
module Ledger = Fbufs_metrics.Ledger
module Sketch = Fbufs_trace.Sketch
module Span = Fbufs_span.Span
module Comp = Fbufs_metrics.Component

type t = {
  interval_us : float;
  spans : Span.t;  (* the transfers whose walls the closing frame reports *)
  mutable metrics : Mx.t option;  (* the observed machines' instance *)
  prev : (string, float) Hashtbl.t;  (* counter totals at the last frame *)
  mutable next_due : float;
  mutable last_now : float;
  mutable frames : int;
}

let create ?(interval_us = 1_000_000.0) () =
  if interval_us <= 0.0 then
    invalid_arg "Top.create: interval must be positive";
  {
    interval_us;
    spans = Span.create ();
    metrics = None;
    prev = Hashtbl.create 16;
    next_due = interval_us;
    last_now = 0.0;
    frames = 0;
  }

(* Total with the per-frame delta, updating the saved value. *)
let track t key total =
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.prev key) in
  Hashtbl.replace t.prev key total;
  (total, total -. prev)

let delta t mx name = track t name (Mx.total_by_name mx ~name)

(* Machine events [names] summed over every metered machine (from one
   [Mx.events] read, [cells]), with the per-frame delta under [key]. *)
let events_delta t cells key names =
  track t key
    (List.fold_left
       (fun acc ((_, event), v) ->
         if List.mem event names then acc +. v else acc)
       0.0 cells)

let gauge_sum mx name =
  List.fold_left
    (fun acc (s : Mx.sample) ->
      if s.Mx.def.Mx.name = name then acc +. s.Mx.value else acc)
    0.0 (Mx.samples mx)

(* Aggregate a counter by one label position (e.g. drops by class). *)
let by_label mx name ~pos =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Mx.sample) ->
      if s.Mx.def.Mx.name = name then
        match List.nth_opt s.Mx.labels pos with
        | Some l ->
            Hashtbl.replace tbl l
              (s.Mx.value
              +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l))
        | None -> ())
    (Mx.samples mx);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let body t mx ~walls =
  let p = Format.fprintf in
  let ppf = Format.std_formatter in
  let ev = events_delta t (Mx.events mx) in
  let sends, d_sends = ev "sends" [ "fbuf.send" ] in
  let pdus, d_pdus = ev "pdus" [ "osiris.tx_pdu"; "osiris.rx_pdu" ] in
  let pdu_drops, d_pdu_drops = ev "lost" [ "osiris.pdu_dropped" ] in
  p ppf "  sends %12.0f (+%.0f)   net pdus %12.0f (+%.0f)  lost %.0f (+%.0f)@."
    sends d_sends pdus d_pdus pdu_drops d_pdu_drops;
  let allocs, d_allocs = delta t mx "fbufs_alloc_total" in
  let secured, d_secured =
    ev "secured" [ "fbuf.secured"; "fbuf.secure_noop" ]
  in
  p ppf "  allocs %11.0f (+%.0f)   secured %13.0f (+%.0f)@." allocs d_allocs
    secured d_secured;
  let pol_drops, d_pol_drops = delta t mx "fbufs_policy_dropped_total" in
  if pol_drops > 0.0 || d_pol_drops > 0.0 then begin
    p ppf "  policy drops %5.0f (+%.0f)" pol_drops d_pol_drops;
    let classes = by_label mx "fbufs_policy_dropped_total" ~pos:2 in
    if classes <> [] then begin
      p ppf "  [";
      List.iteri
        (fun i (c, v) -> p ppf "%s%s %.0f" (if i > 0 then ", " else "") c v)
        classes;
      p ppf "]"
    end;
    p ppf "@."
  end;
  let held = gauge_sum mx "fbufs_policy_held_pages" in
  let thr = gauge_sum mx "fbufs_policy_threshold_pages" in
  if held > 0.0 || thr > 0.0 then
    p ppf "  held pages %7.0f   threshold %11.0f@." held thr;
  let shoot, d_shoot =
    ev "shootdowns"
      [
        "tlb.shootdown"; "tlb.shootdown_batch_entry"; "tlb.shootdown_cancelled";
      ]
  in
  let elided, d_elided =
    ev "elided"
      [ "tlb.elided.reuse"; "tlb.elided.evicted"; "tlb.elided.uncached" ]
  in
  p ppf "  tlb shootdowns %3.0f (+%.0f)   elided %14.0f (+%.0f)@." shoot
    d_shoot elided d_elided;
  let v = Mx.total_by_name mx ~name:"fbufs_monitor_violations_total" in
  if v > 0.0 then p ppf "  monitor violations %.0f@." v;
  let ledger = Mx.ledger mx in
  let total = Ledger.total_us ledger in
  if total > 0.0 then begin
    p ppf "  cost shares:";
    List.iter
      (fun (comp, us) ->
        if us > 0.0 then
          p ppf " %s %.1f%%" (Comp.label comp) (100.0 *. us /. total))
      (Ledger.by_component ledger);
    p ppf "  (total %.1f us)@." total
  end;
  match walls with
  | Some sk when Sketch.count sk > 0 ->
      p ppf "  transfer wall p50 %.1f us  p99 %.1f us  (n=%d)@."
        (Sketch.quantile sk 50.0) (Sketch.quantile sk 99.0) (Sketch.count sk)
  | Some _ | None -> ()

let render t ~now_us ~walls =
  t.frames <- t.frames + 1;
  Format.printf "── top @@ %.1f us ─ frame %d ─@." now_us t.frames;
  Option.iter (fun mx -> body t mx ~walls) t.metrics

let tick t now_us =
  if now_us > t.last_now then t.last_now <- now_us;
  while now_us >= t.next_due do
    render t ~now_us:t.next_due ~walls:None;
    t.next_due <- t.next_due +. t.interval_us
  done

(* The closing frame adds the wall time of every transfer recorded. *)
let final t =
  let walls = Sketch.create () in
  List.iter
    (fun tr -> Sketch.add walls (Fbufs_span.Critical.analyze t.spans tr).wall_us)
    (Span.transfers t.spans);
  render t ~now_us:t.last_now ~walls:(Some walls)

(* The span sink feeds only the closing frame, so it stays out of the
   machine's sinks and lends no transfers to an exposition. *)
let probe t m =
  let tick () =
    if Option.is_none t.metrics then t.metrics <- Mx.of_machine m;
    tick t (Machine.now m)
  in
  Fbufs_sim.Observer.(
    both { (Span.probe t.spans m) with sinks = [] } { nop with tick })

