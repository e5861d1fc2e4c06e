module Machine = Fbufs_sim.Machine
module Mx = Fbufs_metrics.Metrics

type config = {
  budget : int;
  grace : int;
  drop_spike : float;
  max_violations : int;
}

let default = { budget = 32; grace = 16; drop_spike = 8.0; max_violations = 64 }

let violations_total =
  Mx.counter ~name:"fbufs_monitor_violations_total"
    ~help:"Invariant violations detected by the online monitors"
    ~labels:[ "rule" ] ()

let checks_total =
  Mx.counter ~name:"fbufs_monitor_checks_total"
    ~help:"Rule evaluations performed at sequence points"
    ~labels:[ "rule" ] ()

type rule = Ledger_rule | Gauge

let rules = [| Ledger_rule; Gauge |]

let rule_name = function
  | Ledger_rule -> "ledger"
  | Gauge -> "gauge"

type t = {
  config : config;
  recorder : Recorder.t option;
  last_drops : (string, float) Hashtbl.t;
  mutable rule_idx : int;  (* round-robin over [rules] *)
  mutable violations : (string * string) list;  (* newest first, capped *)
  mutable violation_count : int;
  mutable checks : int;
}

let create ?recorder config =
  {
    config;
    recorder;
    last_drops = Hashtbl.create 4;
    rule_idx = 0;
    violations = [];
    violation_count = 0;
    checks = 0;
  }

let violate t m rule fmt =
  Printf.ksprintf
    (fun msg ->
      t.violation_count <- t.violation_count + 1;
      if List.length t.violations < t.config.max_violations then
        t.violations <- (rule_name rule, msg) :: t.violations;
      (match Mx.of_machine m with
      | Some mx -> Mx.incr mx violations_total ~labels:[ rule_name rule ] ()
      | None -> ());
      match t.recorder with
      | Some r ->
          Recorder.note r ~kind:"monitor.violation"
            ~args:
              [
                ("rule", Fbufs_trace.Trace.Str (rule_name rule));
                ("msg", Fbufs_trace.Trace.Str msg);
              ]
            ();
          ignore (Recorder.trigger r ~reason:("monitor:" ^ rule_name rule))
      | None -> ())
    fmt

(* -- rules --------------------------------------------------------------- *)

(* The machine's own arrival total, not the ledger's per-name one: runs
   that build many machines under one name (Table 1's testbeds are all
   "host") merge those in the ledger. *)
let check_ledger t m =
  match Mx.charged_us m with
  | None -> ()
  | Some charged ->
      let busy = Machine.busy_us m in
      if Float.abs (charged -. busy) > 1e-6 then
        violate t m Ledger_rule
          "machine %s: ledger charged %.3f us but busy %.3f us"
          m.Machine.name charged busy

let check_gauges t m =
  match Mx.of_machine m with
  | None -> ()
  | Some mx ->
      let held =
        List.filter
          (fun (s : Mx.sample) ->
            s.Mx.def.Mx.name = "fbufs_policy_held_pages")
          (Mx.samples mx)
      in
      List.iteri
        (fun i (s : Mx.sample) ->
          if i < t.config.budget then
            match
              Mx.value_by_name mx ~name:"fbufs_policy_threshold_pages"
                ~labels:s.Mx.labels
            with
            | Some thr ->
                if s.Mx.value > thr +. float_of_int t.config.grace then
                  violate t m Gauge
                    "path %s holds %.0f pages, threshold %.0f (+%d grace)"
                    (String.concat "/" s.Mx.labels)
                    s.Mx.value thr t.config.grace
            | None -> ())
        held

let check_drop_spike t m =
  match Mx.of_machine m with
  | None -> ()
  | Some mx ->
      let total = Mx.total_by_name mx ~name:"fbufs_policy_dropped_total" in
      let last =
        Option.value ~default:0.0 (Hashtbl.find_opt t.last_drops m.Machine.name)
      in
      Hashtbl.replace t.last_drops m.Machine.name total;
      if total -. last >= t.config.drop_spike then begin
        match t.recorder with
        | Some r ->
            Recorder.note r ~kind:"monitor.drop_spike"
              ~args:
                [ ("drops", Fbufs_trace.Trace.Float (total -. last)) ]
              ();
            ignore (Recorder.trigger r ~reason:"drop-spike")
        | None -> ()
      end

let hook t m _site =
  t.checks <- t.checks + 1;
  check_drop_spike t m;
  let rule = rules.(t.rule_idx mod Array.length rules) in
  t.rule_idx <- (t.rule_idx + 1) mod Array.length rules;
  (match Mx.of_machine m with
  | Some mx -> Mx.incr mx checks_total ~labels:[ rule_name rule ] ()
  | None -> ());
  match rule with
  | Ledger_rule -> check_ledger t m
  | Gauge -> check_gauges t m

let probe t m = { Fbufs_sim.Observer.nop with seq_point = hook t m }

let violations t = List.rev t.violations
let violation_count t = t.violation_count
let checks t = t.checks
