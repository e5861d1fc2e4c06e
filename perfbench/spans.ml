(* Host-time spans recorded around the benchmark's own calls into each
   layer. Single-threaded, global state: one open-span stack, per-name
   self-time totals, and a bounded in-memory store of finished spans that
   is written out when the run ends.

   With recording off, [enter]/[exit] are one dereference each and
   allocate nothing, so the untraced windows pay (almost) nothing. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- span names ------------------------------------------------------ *)

let registry = ref []

let register name =
  let id = List.length !registry in
  registry := (id, name) :: !registry;
  id

let des = register "sim.des"
let netdev_rx = register "netdev.rx"
let send_pdu = register "netdev.send_pdu"
let alloc = register "core.alloc"
let build = register "msg.build"
let touch_read = register "msg.touch_read"
let check = register "msg.check"
let free = register "msg.free"
let ipc_call = register "ipc.call"
let handler = register "bench.handler"
let proxy = register "xkernel.proxy"
let udp_push = register "protocols.udp_push"
let udp_pop = register "protocols.udp_pop"
let ip_push = register "protocols.ip_push"
let ip_pop = register "protocols.ip_pop"
let sink = register "bench.sink"
let nnames = List.length !registry
let name id = List.assoc id !registry

(* ---- recorder state -------------------------------------------------- *)

let on = ref false

(* Message id stamped on every span opened from now on. *)
let msg = ref 0

let max_depth = 128
let st_name = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_rec = Array.make max_depth (-1)
let depth = ref 0

let self_ns = Array.make nnames 0

(* Finished spans kept for the dump; later spans still count in the
   totals above but are not stored. *)
let capacity = 50_000
let r_name = Array.make capacity 0
let r_start = Array.make capacity 0
let r_stop = Array.make capacity 0
let r_parent = Array.make capacity 0
let r_msg = Array.make capacity 0
let stored = ref 0

let reset () =
  depth := 0;
  stored := 0;
  Array.fill self_ns 0 nnames 0

let enter id =
  if !on then begin
    let d = !depth in
    depth := d + 1;
    if d < max_depth then begin
      st_name.(d) <- id;
      st_child.(d) <- 0;
      let r = !stored in
      if r < capacity then begin
        stored := r + 1;
        r_name.(r) <- id;
        r_parent.(r) <- (if d > 0 then st_rec.(d - 1) else -1);
        r_msg.(r) <- !msg;
        st_rec.(d) <- r
      end
      else st_rec.(d) <- -1;
      (* Read the clock last so the bookkeeping above is the parent's. *)
      st_start.(d) <- now_ns ()
    end
  end

let exit () =
  if !on then begin
    let t = now_ns () in
    let d = !depth - 1 in
    depth := d;
    if d < max_depth then begin
      let dur = t - st_start.(d) in
      let id = st_name.(d) in
      self_ns.(id) <- self_ns.(id) + dur - st_child.(d);
      if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
      let r = st_rec.(d) in
      if r >= 0 then begin
        r_start.(r) <- st_start.(d);
        r_stop.(r) <- t
      end
    end
  end

(* Close every span opened above [d] (after an exception unwound them). *)
let unwind d =
  while !depth > d do
    exit ()
  done

let wrap id f =
 fun x ->
  if !on then begin
    enter id;
    match f x with
    | () -> exit ()
    | exception e ->
        exit ();
        raise e
  end
  else f x

(* Self time of every name, in microseconds. *)
let self_us () =
  List.init nnames (fun id -> (name id, float_of_int self_ns.(id) /. 1e3))

let write_jsonl path =
  let oc = open_out path in
  let base = if !stored > 0 then r_start.(0) else 0 in
  for r = 0 to !stored - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"msg\":%d}\n"
      r (name r_name.(r)) (r_start.(r) - base) (r_stop.(r) - base) r_parent.(r)
      r_msg.(r)
  done;
  close_out oc
