(* The benchmark's workloads, driven through the libraries' public
   functions from one thread. Each is a closed loop with one client: the
   sizes of the messages it sends arrive as a generated array, so the
   workload code never sees the seed.

   - ipc-rpc: synchronous Integrated-mode [Ipc.call] round trips between
     two user domains on one host (Table 1 / Figure 3 fast path).
   - udp-cached / udp-uncached: the Figure 5 / Figure 6 user-netserver-user
     configuration across two hosts joined by Osiris over [Des], UDP/IP at
     16 KB PDUs, a window of 8 messages, each ack releasing the next send. *)

open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Integrated = Fbufs_msg.Integrated
module Ipc = Fbufs_ipc.Ipc
module Protocol = Fbufs_xkernel.Protocol
module Proxy = Fbufs_xkernel.Proxy
module Ip = Fbufs_protocols.Ip
module Udp = Fbufs_protocols.Udp
module Osiris = Fbufs_netdev.Osiris
module Testbed = Fbufs_harness.Testbed

(* What one window of traffic did. A message counts as [ok] only once the
   receiver has checked its length and the tag in its first and last page. *)
type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable errors : int;  (** exceptions that escaped a layer call *)
  mutable bytes : int;  (** payload bytes of ok messages *)
  mutable nodes : int;  (** DAG nodes of the delivered messages *)
  mutable lat_ns : int array;  (** host time of each verified message *)
  mutable done_ns : int array;  (** when it was delivered (monotonic clock) *)
  mutable nlat : int;
  mutable last_error : string;
}

let tally () =
  {
    sent = 0;
    ok = 0;
    errors = 0;
    bytes = 0;
    nodes = 0;
    lat_ns = Array.make 4096 0;
    done_ns = Array.make 4096 0;
    nlat = 0;
    last_error = "";
  }

(* A message that started at [t0] has just been delivered. *)
let record_latency t ~t0 =
  let now = Spans.now_ns () in
  if t.nlat = Array.length t.lat_ns then begin
    let grow a =
      let bigger = Array.make (2 * t.nlat) 0 in
      Array.blit a 0 bigger 0 t.nlat;
      bigger
    in
    t.lat_ns <- grow t.lat_ns;
    t.done_ns <- grow t.done_ns
  end;
  t.lat_ns.(t.nlat) <- now - t0;
  t.done_ns.(t.nlat) <- now;
  t.nlat <- t.nlat + 1

let note_error t depth e =
  Spans.unwind depth;
  t.errors <- t.errors + 1;
  t.last_error <- Printexc.to_string e

(* Keep sending while fewer than [upto] messages were sent in the tally
   and the monotonic clock (ns) is before [deadline]. *)
type stop = { upto : int; deadline : int }

let count n = { upto = n; deadline = max_int }

let continue t stop = t.sent < stop.upto && Spans.now_ns () < stop.deadline

type t = {
  tx : Machine.t;
  rx : Machine.t;  (** the same machine as [tx] for ipc-rpc *)
  allocators : Allocator.t list;  (** every allocator the workload created *)
  accessors : unit -> (string * int) list;
      (** cumulative counts from the layers' public accessors *)
  run : tally -> sizes:int array -> stop -> unit;
      (** send from the workload's running position in [sizes], then
          drain until quiescent *)
  quiesce_checks : unit -> (string * bool) list;
      (** flush deferred work, then the end-of-run consistency checks *)
}

(* ---- per-message tag ------------------------------------------------- *)

let tag id = ((id * 0x9E3779B1) + 0x5BD1E995) land 0x3FFF_FFFF lor 1
let last_word len = (len - 4) land lnot 3

let stamp fb ~as_ ~id ~len =
  Fbuf_api.set_word fb ~as_ ~off:0 (tag id);
  Fbuf_api.set_word fb ~as_ ~off:(last_word len) (tag id)

let word_at msg ~as_ ~off =
  Int32.to_int (Bytes.get_int32_le (Msg.sub_bytes msg ~as_ ~off ~len:4) 0)
  land 0xFFFF_FFFF

(* The payload starts [off] bytes into [msg] and must be [len] bytes long
   with message [id]'s tag at both ends. *)
let intact msg ~as_ ~off ~id ~len =
  Msg.length msg = off + len
  && word_at msg ~as_ ~off = tag id
  && word_at msg ~as_ ~off:(off + last_word len) = tag id

let deliver t ~ok ~len ~nodes =
  t.nodes <- t.nodes + nodes;
  if ok then begin
    t.ok <- t.ok + 1;
    t.bytes <- t.bytes + len
  end

(* Every size class of the message range stays cached at once, which needs
   more region (and per-allocator chunks) than the paper's single-size
   experiments. *)
let config =
  {
    Region.default_config with
    Region.region_pages = 65536;
    max_chunks_per_allocator = 1024;
  }

(* ---- ipc-rpc --------------------------------------------------------- *)

let header_bytes = 64

let ipc_rpc () =
  let tb = Testbed.create ~name:"host" ~seed:1 ~config () in
  let m = tb.Testbed.m in
  let ps = Testbed.page_size tb in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let conn =
    Ipc.connect tb.Testbed.region ~src:app ~dst:recv ~mode:Ipc.Integrated ()
  in
  let next = ref 0 in
  let one t ~id ~bytes =
    let t0 = Spans.now_ns () in
    Spans.msg := id;
    Spans.enter Spans.alloc;
    let hdr = Allocator.alloc alloc ~npages:1 in
    let pay = Allocator.alloc alloc ~npages:((bytes + ps - 1) / ps) in
    Spans.exit ();
    Spans.enter Spans.build;
    Fbuf_api.set_word hdr ~as_:app ~off:0 bytes;
    Fbuf_api.touch_write pay ~as_:app;
    stamp pay ~as_:app ~id ~len:bytes;
    let msg =
      Msg.join
        (Msg.of_fbuf hdr ~off:0 ~len:header_bytes)
        (Msg.of_fbuf pay ~off:0 ~len:bytes)
    in
    Spans.exit ();
    t.sent <- t.sent + 1;
    Spans.enter Spans.ipc_call;
    Ipc.call conn msg ~handler:(fun received ->
        Spans.enter Spans.handler;
        Spans.enter Spans.touch_read;
        Msg.touch_read received ~as_:recv;
        Spans.exit ();
        Spans.enter Spans.check;
        let ok = intact received ~as_:recv ~off:header_bytes ~id ~len:bytes in
        deliver t ~ok ~len:bytes ~nodes:(Integrated.node_count received);
        Spans.exit ();
        Spans.enter Spans.free;
        Ipc.free_deferred conn received;
        Spans.exit ();
        Spans.exit ());
    Spans.exit ();
    Spans.enter Spans.free;
    Msg.free_all msg ~dom:app;
    Spans.exit ();
    record_latency t ~t0
  in
  let run t ~sizes stop =
    while continue t stop do
      let id = !next in
      incr next;
      let d = !Spans.depth in
      try one t ~id ~bytes:sizes.(id mod Array.length sizes)
      with e -> note_error t d e
    done
  in
  let allocators = alloc :: Option.to_list (Ipc.meta_allocator conn) in
  {
    tx = m;
    rx = m;
    allocators;
    accessors = (fun () -> [ ("ipc.pending_deallocs", Ipc.pending_deallocs conn) ]);
    run;
    quiesce_checks =
      (fun () ->
        Ipc.flush_deallocs conn;
        [ ("no deallocation notice left pending", Ipc.pending_deallocs conn = 0) ]);
  }

(* ---- udp over Osiris ------------------------------------------------- *)

let pdu_size = 16384
let window = 8
let data_vci = 5
let ack_vci = 6
let port = 2000

type outstanding = { oid : int; obytes : int; ot0 : int }

(* The Figure 5 user-netserver-user stack, with every protocol entry point
   the benchmark wires wrapped in a span. [cached] selects the Figure 5
   buffers (cached/volatile fbufs, registered receive VCI); otherwise the
   Figure 6 ones ([Fbuf.plain], unregistered VCI). *)
let udp ~cached () =
  let variant = if cached then Fbuf.cached_volatile else Fbuf.plain in
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:1 ~config () in
  let tb2 = Testbed.create ~name:"rx" ~seed:2 ~config () in
  let m1 = tb1.Testbed.m and m2 = tb2.Testbed.m in
  let k1 = tb1.Testbed.kernel and k2 = tb2.Testbed.kernel in
  let ps = Testbed.page_size tb1 in
  let allocs = ref [] in
  let allocator tb domains variant =
    let a = Testbed.allocator tb ~domains variant in
    allocs := a :: !allocs;
    a
  in
  let ad1 = Osiris.create ~m:m1 ~des ~region:tb1.Testbed.region ~kernel:k1 () in
  let ad2 = Osiris.create ~m:m2 ~des ~region:tb2.Testbed.region ~kernel:k2 () in
  Osiris.connect ad1 ad2;
  let wrap_push (p : Protocol.t) id = p.Protocol.push <- Spans.wrap id p.Protocol.push in
  let wrap_pop (p : Protocol.t) id = p.Protocol.pop <- Spans.wrap id p.Protocol.pop in

  (* transmit host: app -> netserver (UDP) -> kernel (IP, driver) *)
  let app1 = Testbed.user_domain tb1 "app" in
  let ns1 = Testbed.user_domain tb1 "netserver" in
  let driver1 =
    Protocol.create ~name:"osiris-tx" ~dom:k1
      ~push:
        (Spans.wrap Spans.send_pdu (fun pdu ->
             Osiris.send_pdu ad1 ~vci:data_vci pdu))
      ()
  in
  let ip1 =
    Ip.create ~dom:k1 ~below:driver1
      ~header_alloc:(allocator tb1 [ k1 ] variant)
      ~pdu_size ()
  in
  wrap_push (Ip.proto ip1) Spans.ip_push;
  let to_ip =
    Proxy.push_proxy tb1.Testbed.region ~from_dom:ns1 ~target:(Ip.proto ip1) ()
  in
  wrap_push to_ip Spans.proxy;
  let udp1 =
    Udp.create ~dom:ns1 ~below:to_ip
      ~header_alloc:(allocator tb1 [ ns1; k1 ] variant)
      ~dst_port:port ()
  in
  wrap_push (Udp.proto udp1) Spans.udp_push;
  let entry =
    Proxy.push_proxy tb1.Testbed.region ~from_dom:app1 ~target:(Udp.proto udp1) ()
  in
  wrap_push entry Spans.proxy;
  let data_alloc = allocator tb1 [ app1; ns1; k1 ] variant in

  (* receive host: kernel (driver, IP) -> netserver (UDP) -> app (sink) *)
  let app2 = Testbed.user_domain tb2 "app" in
  let ns2 = Testbed.user_domain tb2 "netserver" in
  if cached then Osiris.register_path ad2 ~vci:data_vci ~domains:[ k2; ns2; app2 ];
  Osiris.register_path ad1 ~vci:ack_vci ~domains:[ k1 ];
  let ip2 =
    Ip.create ~dom:k2
      ~below:(Protocol.create ~name:"null" ~dom:k2 ())
      ~header_alloc:(allocator tb2 [ k2 ] variant)
      ~pdu_size ()
  in
  wrap_pop (Ip.proto ip2) Spans.ip_pop;
  let udp2 =
    Udp.create ~dom:ns2
      ~below:(Protocol.create ~name:"null-up" ~dom:ns2 ())
      ~header_alloc:(allocator tb2 [ ns2 ] variant)
      ()
  in
  wrap_pop (Udp.proto udp2) Spans.udp_pop;
  let to_udp =
    Proxy.pop_proxy tb2.Testbed.region ~from_dom:k2 ~target:(Udp.proto udp2) ()
  in
  wrap_pop to_udp Spans.proxy;
  Ip.set_up ip2 to_udp;
  let ack_alloc = allocator tb2 [ k2 ] Fbuf.cached_volatile in

  (* Per-run state shared by the sender and the callbacks. *)
  let cur = ref (tally ()) in
  let cur_sizes = ref [| 1 |] in
  let cur_stop = ref (count 0) in
  let next = ref 0 in
  let multi_sent = ref 0 in
  let in_flight = Queue.create () in

  (* The ack crosses from the sink's user domain back to the kernel. *)
  let send_ack () =
    Machine.charge ~comp:Fbufs_metrics.Component.Ipc m2
      m2.Machine.cost.Cost_model.ipc_call;
    Machine.charge ~comp:Fbufs_metrics.Component.Ipc m2
      m2.Machine.cost.Cost_model.ipc_reply;
    Machine.domain_crossing_tlb_pressure m2;
    Spans.enter Spans.alloc;
    let fb = Allocator.alloc ack_alloc ~npages:1 in
    Spans.exit ();
    Spans.enter Spans.build;
    Fbuf_api.touch_write fb ~as_:k2;
    let ack = Msg.of_fbuf fb ~off:0 ~len:64 in
    Spans.exit ();
    Spans.enter Spans.send_pdu;
    Osiris.send_pdu ad2 ~vci:ack_vci ack;
    Spans.exit ();
    Spans.enter Spans.free;
    Msg.free_held ack ~dom:k2;
    Spans.exit ()
  in
  let sink =
    Protocol.create ~name:"sink" ~dom:app2
      ~pop:(fun msg ->
        Spans.enter Spans.sink;
        let t = !cur in
        (match Queue.take_opt in_flight with
        | None ->
            t.errors <- t.errors + 1;
            t.last_error <- "delivery with no message in flight"
        | Some o ->
            Spans.msg := o.oid;
            Spans.enter Spans.touch_read;
            Msg.touch_read msg ~as_:app2;
            Spans.exit ();
            Spans.enter Spans.check;
            let ok = intact msg ~as_:app2 ~off:0 ~id:o.oid ~len:o.obytes in
            deliver t ~ok ~len:o.obytes ~nodes:(Integrated.node_count msg);
            Spans.exit ();
            Spans.enter Spans.free;
            Msg.free_all msg ~dom:app2;
            Spans.exit ();
            record_latency t ~t0:o.ot0);
        send_ack ();
        Spans.exit ())
      ()
  in
  let to_sink =
    Proxy.pop_proxy tb2.Testbed.region ~from_dom:ns2 ~target:sink ()
  in
  wrap_pop to_sink Spans.proxy;
  Udp.bind udp2 ~port to_sink;

  let outstanding = ref 0 in
  let send_one t =
    let id = !next in
    incr next;
    let sizes = !cur_sizes in
    let bytes = sizes.(id mod Array.length sizes) in
    let t0 = Spans.now_ns () in
    Spans.msg := id;
    t.sent <- t.sent + 1;
    incr outstanding;
    if bytes + Udp.header_size > pdu_size then incr multi_sent;
    Queue.add { oid = id; obytes = bytes; ot0 = t0 } in_flight;
    let d = !Spans.depth in
    try
      Spans.enter Spans.alloc;
      let fb = Allocator.alloc data_alloc ~npages:((bytes + ps - 1) / ps) in
      Spans.exit ();
      Spans.enter Spans.build;
      Fbuf_api.touch_write fb ~as_:app1;
      stamp fb ~as_:app1 ~id ~len:bytes;
      let msg = Msg.of_fbuf fb ~off:0 ~len:bytes in
      Spans.exit ();
      entry.Protocol.push msg;
      (* As in the Figure 5 driver: the entry proxy has already released
         the sender's references, so this frees nothing on this stack. *)
      Spans.enter Spans.free;
      Msg.free_held msg ~dom:app1;
      Spans.exit ()
    with e -> note_error t d e
  in
  let pump () =
    let t = !cur in
    while !outstanding < window && continue t !cur_stop do
      send_one t
    done
  in
  Osiris.set_rx_handler ad2 (fun ~vci msg ->
      if vci = data_vci then begin
        (match Queue.peek_opt in_flight with
        | Some o -> Spans.msg := o.oid
        | None -> ());
        (Ip.proto ip2).Protocol.pop msg
      end
      else Msg.free_held msg ~dom:k2);
  Osiris.set_rx_handler ad1 (fun ~vci msg ->
      Spans.enter Spans.free;
      Msg.free_held msg ~dom:k1;
      Spans.exit ();
      if vci = ack_vci then begin
        decr outstanding;
        pump ()
      end);
  let step t =
    Spans.enter Spans.netdev_rx;
    let d = !Spans.depth in
    let more = try Des.step des with e -> note_error t d e; true in
    Spans.exit ();
    more
  in
  let run t ~sizes stop =
    cur := t;
    cur_sizes := sizes;
    cur_stop := stop;
    Spans.enter Spans.des;
    pump ();
    while step t do
      ()
    done;
    Spans.exit ();
    (* Whatever was never delivered is failed, and must not be matched
       against the next window's deliveries. *)
    Queue.clear in_flight;
    outstanding := 0
  in
  let tx_pdus m = Stats.get m.Machine.stats "osiris.tx_pdu" in
  let accessors () =
    [
      ("ip.fragments_sent", Ip.fragments_sent ip1);
      ("ip.reassemblies", Ip.reassemblies_completed ip2);
      ("udp.delivered", Udp.delivered udp2);
      ("osiris.cells_sent", Osiris.cells_sent ad1 + Osiris.cells_sent ad2);
      ("osiris.data_pdus_received", Osiris.pdus_received ad2);
      ("osiris.uncached_rx_pdus", Osiris.uncached_rx_pdus ad2);
      ("osiris.pdus_dropped", Osiris.pdus_dropped ad1 + Osiris.pdus_dropped ad2);
      ("osiris.evictions", Osiris.evictions ad2);
    ]
  in
  let rx_allocs =
    List.filter_map Fun.id
      [ Osiris.rx_allocator ad2 ~vci:data_vci; Osiris.rx_allocator ad1 ~vci:ack_vci ]
  in
  {
    tx = m1;
    rx = m2;
    allocators = !allocs @ rx_allocs;
    accessors;
    run;
    quiesce_checks =
      (fun () ->
        [
          ("DES queue empty", Des.pending des = 0);
          ( "every data PDU received or counted as dropped",
            tx_pdus m1 = Osiris.pdus_received ad2 + Osiris.pdus_dropped ad1 );
          ( "every ack PDU received or counted as dropped",
            tx_pdus m2 = Osiris.pdus_received ad1 + Osiris.pdus_dropped ad2 );
          ( "reassemblies equal multi-fragment messages sent",
            Ip.reassemblies_completed ip2 = !multi_sent );
          ("no UDP port or checksum drops",
            Udp.no_port_drops udp2 = 0 && Udp.checksum_failures udp2 = 0);
        ]);
  }

(* ---- catalogue ------------------------------------------------------- *)

type spec = {
  name : string;
  lo : int;  (** smallest message, bytes *)
  hi : int;  (** largest message, bytes *)
  create : unit -> t;
  probe_msgs : int;  (** messages in one determinism probe *)
  slice_msgs : int;  (** messages per timed slice, about a third of a second *)
}

let specs =
  [
    {
      name = "ipc-rpc";
      lo = 4096;
      hi = 131072;
      create = ipc_rpc;
      probe_msgs = 256;
      slice_msgs = 16000;
    };
    {
      name = "udp-cached";
      lo = 4096;
      hi = 262144;
      create = udp ~cached:true;
      probe_msgs = 64;
      slice_msgs = 2000;
    };
    {
      name = "udp-uncached";
      lo = 4096;
      hi = 262144;
      create = udp ~cached:false;
      probe_msgs = 64;
      slice_msgs = 1000;
    };
  ]

(* Stratified sizes: each block of [strata] consecutive messages draws one
   size from each of [strata] equal-width bands of [lo, hi], in a seeded
   order. Every seed then sends the same size mix, in a different order
   and with different sub-band sizes, which keeps per-seed averages
   comparable while the sizes still come from the seed. *)
let strata = 32

let sizes spec ~seed ~count =
  let st = Random.State.make [| seed; 0xFB0F |] in
  let band = float_of_int (spec.hi - spec.lo) /. float_of_int strata in
  let out = Array.make count 0 in
  let perm = Array.init strata Fun.id in
  for b = 0 to (count / strata) - 1 do
    for i = strata - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- x
    done;
    Array.iteri
      (fun i k ->
        let u = Random.State.float st 1.0 in
        let s = spec.lo + int_of_float ((float_of_int k +. u) *. band) in
        out.((b * strata) + i) <- min spec.hi (max spec.lo s))
      perm
  done;
  out

(* Warm-up sizes: every page count in range three times back to back, so
   each allocator size class (and the receive pools) holds enough parked
   buffers for the steady state. *)
let warmup_sizes spec =
  let ps = 4096 in
  let pages = spec.hi / ps in
  Array.init (3 * pages) (fun i -> ((i / 3) + 1) * ps)
