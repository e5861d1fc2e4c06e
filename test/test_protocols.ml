(* Tests for the protocol suite: headers, IP fragmentation/reassembly, UDP
   demultiplexing, loopback, and full stacks across domains. *)

open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Protocol = Fbufs_xkernel.Protocol
module Ip = Fbufs_protocols.Ip
module Udp = Fbufs_protocols.Udp
module Rtp = Fbufs_protocols.Rtp
module Loopback = Fbufs_protocols.Loopback
module Header = Fbufs_protocols.Header
module Testproto = Fbufs_protocols.Testproto
module Testbed = Fbufs_harness.Testbed
module Stacks = Fbufs_harness.Stacks

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Header codecs                                                       *)
(* ------------------------------------------------------------------ *)

let test_u16_roundtrip () =
  let b = Bytes.create 4 in
  Header.set_u16 b 1 0xBEEF;
  check Alcotest.int "u16" 0xBEEF (Header.get_u16 b 1)

let test_u32_roundtrip () =
  let b = Bytes.create 8 in
  Header.set_u32 b 2 0xDEADBEEF;
  check Alcotest.int "u32" 0xDEADBEEF (Header.get_u32 b 2)

let test_prepend_and_peek () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let payload =
    let fb = Allocator.alloc alloc ~npages:1 in
    Fbuf_api.write fb ~as_:d ~off:0 "body";
    Msg.of_fbuf fb ~off:0 ~len:4
  in
  let _, pdu = Header.prepend ~alloc ~as_:d (Bytes.of_string "HDR!") payload in
  check Alcotest.int "length" 8 (Msg.length pdu);
  check Alcotest.bytes "peek" (Bytes.of_string "HDR!")
    (Header.peek pdu ~as_:d ~len:4);
  check Alcotest.string "payload intact" "body"
    (Msg.to_string (Msg.clip pdu 4) ~as_:d)

(* ------------------------------------------------------------------ *)
(* Single-domain stack plumbing                                        *)
(* ------------------------------------------------------------------ *)

let test_loopback_single_domain_delivery () =
  let stack = Stacks.single_domain () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:2048 ~fill:"ping" ()
  in
  stack.Stacks.send msg;
  check Alcotest.int "one message" 1 (Testproto.received stack.Stacks.sink);
  check Alcotest.int "all bytes" 2048
    (Testproto.received_bytes stack.Stacks.sink)

let test_payload_integrity_through_stack () =
  let stack = Stacks.single_domain () in
  let got = ref "" in
  let sink2 =
    Testproto.sink ~dom:stack.Stacks.sender_dom
      ~consume:(fun m -> got := Msg.to_string m ~as_:stack.Stacks.sender_dom)
      ()
  in
  (* Rebind the stack's UDP port to our inspecting sink. *)
  ignore sink2;
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:10000 ~fill:"0123456789" ()
  in
  (* Capture via the stack's own sink instead: check last message. *)
  stack.Stacks.send msg;
  match Testproto.last_message stack.Stacks.sink with
  | None -> Alcotest.fail "no message delivered"
  | Some _ ->
      (* The sink freed the message; integrity is verified by the
         fragmentation tests below which inspect before freeing. *)
      ()

let test_fragmentation_counts () =
  let stack = Stacks.single_domain ~pdu_size:4096 () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:(4096 * 4) ()
  in
  stack.Stacks.send msg;
  (* 16 KB of payload + 12 bytes of UDP header = 5 fragments. *)
  check Alcotest.int "fragments" 5 (Ip.fragments_sent stack.Stacks.ip);
  check Alcotest.int "reassembled" 1
    (Ip.reassemblies_completed stack.Stacks.ip)

let test_small_message_not_fragmented () =
  let stack = Stacks.single_domain ~pdu_size:4096 () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:1024 ()
  in
  stack.Stacks.send msg;
  check Alcotest.int "one fragment" 1 (Ip.fragments_sent stack.Stacks.ip);
  check Alcotest.int "no reassembly" 0
    (Ip.reassemblies_completed stack.Stacks.ip)

let test_reassembly_byte_integrity () =
  (* Build a custom single-domain stack whose sink inspects the payload
     before freeing. *)
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let variant = Fbuf.cached_volatile in
  let alloc v = Testbed.allocator tb ~domains:[ d ] v in
  let lb = Loopback.create ~dom:d () in
  let ip =
    Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:(alloc variant)
      ~pdu_size:4096 ()
  in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:(alloc variant)
      ~dst_port:7 ()
  in
  Ip.set_up ip (Udp.proto udp);
  let got = ref "" in
  let sink =
    Testproto.sink ~dom:d ~consume:(fun m -> got := Msg.to_string m ~as_:d) ()
  in
  Udp.bind udp ~port:7 (Testproto.sink_proto sink);
  let pattern = "abcdefghij" in
  let bytes = 40000 in
  let msg =
    Testproto.make_message ~alloc:(alloc variant) ~as_:d ~bytes ~fill:pattern ()
  in
  (Udp.proto udp).Protocol.push msg;
  check Alcotest.int "full length" bytes (String.length !got);
  let expected = String.init bytes (fun i -> pattern.[i mod 10]) in
  check Alcotest.bool "bytes equal" true (String.equal !got expected)

let test_udp_demux_by_port () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let lb = Loopback.create ~dom:d () in
  let ip =
    Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc ()
  in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:alloc ~dst_port:42 ()
  in
  Ip.set_up ip (Udp.proto udp);
  let right = Testproto.sink ~dom:d () in
  let wrong = Testproto.sink ~dom:d () in
  Udp.bind udp ~port:42 (Testproto.sink_proto right);
  Udp.bind udp ~port:43 (Testproto.sink_proto wrong);
  let msg = Testproto.make_message ~alloc ~as_:d ~bytes:512 () in
  (Udp.proto udp).Protocol.push msg;
  check Alcotest.int "right port got it" 1 (Testproto.received right);
  check Alcotest.int "wrong port did not" 0 (Testproto.received wrong)

let test_udp_unbound_port_drops () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let lb = Loopback.create ~dom:d () in
  let ip = Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc () in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:alloc ~dst_port:99 ()
  in
  Ip.set_up ip (Udp.proto udp);
  let msg = Testproto.make_message ~alloc ~as_:d ~bytes:128 () in
  (Udp.proto udp).Protocol.push msg;
  check Alcotest.int "dropped" 1 (Udp.no_port_drops udp)

let test_udp_checksum_validates () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let lb = Loopback.create ~dom:d () in
  let ip = Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc () in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:alloc ~dst_port:1
      ~checksum:true ()
  in
  Ip.set_up ip (Udp.proto udp);
  let sink = Testproto.sink ~dom:d () in
  Udp.bind udp ~port:1 (Testproto.sink_proto sink);
  let msg = Testproto.make_message ~alloc ~as_:d ~bytes:4000 ~fill:"ok" () in
  (Udp.proto udp).Protocol.push msg;
  check Alcotest.int "delivered with good checksum" 1 (Testproto.received sink);
  check Alcotest.int "no failures" 0 (Udp.checksum_failures udp)

let test_udp_checksum_detects_corruption () =
  (* A volatile originator mutates the data mid-flight (between push and
     the receive-side verification we force by corrupting first). *)
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  (* Stack where UDP pop rechecks the checksum; corrupt between the two by
     interposing a protocol that scribbles on the (volatile) buffer. *)
  let lb = Loopback.create ~dom:d () in
  let ip = Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc () in
  let corrupter =
    Protocol.create ~name:"corrupter" ~dom:d
      ~push:(fun pdu -> (Ip.proto ip).Protocol.push pdu)
      ()
  in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:corrupter ~header_alloc:alloc ~dst_port:1
      ~checksum:true ()
  in
  Ip.set_up ip (Udp.proto udp);
  let sink = Testproto.sink ~dom:d () in
  Udp.bind udp ~port:1 (Testproto.sink_proto sink);
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write fb ~as_:d ~off:0 "honest data";
  corrupter.Protocol.push <-
    (fun pdu ->
      (* Asynchronous modification by the (volatile) originator. *)
      Fbuf_api.write fb ~as_:d ~off:0 "tamperedata";
      (Ip.proto ip).Protocol.push pdu);
  (Udp.proto udp).Protocol.push (Msg.of_fbuf fb ~off:0 ~len:11);
  check Alcotest.int "checksum failure detected" 1 (Udp.checksum_failures udp);
  check Alcotest.int "not delivered" 0 (Testproto.received sink)

(* ------------------------------------------------------------------ *)
(* Multi-domain stack                                                  *)
(* ------------------------------------------------------------------ *)

let test_three_domain_delivery () =
  let stack = Stacks.three_domains () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:20000 ()
  in
  stack.Stacks.send msg;
  check Alcotest.int "delivered" 1 (Testproto.received stack.Stacks.sink);
  check Alcotest.int "bytes" 20000
    (Testproto.received_bytes stack.Stacks.sink)

let test_three_domain_steady_state_no_leaks () =
  let stack = Stacks.three_domains () in
  let m = stack.Stacks.tb.Testbed.m in
  let send () =
    let msg =
      Testproto.make_message ~alloc:stack.Stacks.data_alloc
        ~as_:stack.Stacks.sender_dom ~bytes:16384 ()
    in
    stack.Stacks.send msg
  in
  send ();
  send ();
  let frames = Phys_mem.free_frames m.Machine.pmem in
  for _ = 1 to 25 do
    send ()
  done;
  check Alcotest.int "frame count stable" frames
    (Phys_mem.free_frames m.Machine.pmem)

let test_three_domain_uncached_works () =
  let stack = Stacks.three_domains ~variant:Fbuf.plain () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:12000 ()
  in
  stack.Stacks.send msg;
  check Alcotest.int "delivered" 1 (Testproto.received stack.Stacks.sink)

let test_cached_faster_than_uncached_stack () =
  let time variant =
    let stack = Stacks.three_domains ~variant () in
    let m = stack.Stacks.tb.Testbed.m in
    let send () =
      let msg =
        Testproto.make_message ~alloc:stack.Stacks.data_alloc
          ~as_:stack.Stacks.sender_dom ~bytes:65536 ()
      in
      stack.Stacks.send msg
    in
    send ();
    let t0 = Machine.now m in
    for _ = 1 to 5 do
      send ()
    done;
    Machine.now m -. t0
  in
  let cached = time Fbuf.cached_volatile in
  let uncached = time Fbuf.plain in
  Alcotest.(check bool)
    (Printf.sprintf "cached (%.0f) beats uncached (%.0f)" cached uncached)
    true (uncached > cached *. 1.3)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_any_size_survives_stack =
  QCheck.Test.make ~name:"arbitrary sizes survive fragmentation/reassembly"
    ~count:40
    QCheck.(int_range 1 100_000)
    (fun bytes ->
      let tb = Testbed.create () in
      let d = Testbed.user_domain tb "d" in
      let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
      let lb = Loopback.create ~dom:d () in
      let ip =
        Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc
          ~pdu_size:4096 ()
      in
      Loopback.set_up lb (Ip.proto ip);
      let udp =
        Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:alloc ~dst_port:5 ()
      in
      Ip.set_up ip (Udp.proto udp);
      let received = ref (-1) in
      let sink =
        Testproto.sink ~dom:d ~consume:(fun m -> received := Msg.length m) ()
      in
      Udp.bind udp ~port:5 (Testproto.sink_proto sink);
      let msg = Testproto.make_message ~alloc ~as_:d ~bytes () in
      (Udp.proto udp).Protocol.push msg;
      !received = bytes)

let prop_fragment_count =
  QCheck.Test.make ~name:"fragment count = ceil((len+udp)/pdu)" ~count:60
    QCheck.(pair (int_range 1 60_000) (int_range 1000 8000))
    (fun (bytes, pdu_size) ->
      let stack = Stacks.single_domain ~pdu_size () in
      let msg =
        Testproto.make_message ~alloc:stack.Stacks.data_alloc
          ~as_:stack.Stacks.sender_dom ~bytes ()
      in
      stack.Stacks.send msg;
      let total = bytes + Udp.header_size in
      Ip.fragments_sent stack.Stacks.ip = (total + pdu_size - 1) / pdu_size)

(* ------------------------------------------------------------------ *)
(* Malformed PDUs on the receive path                                  *)
(* ------------------------------------------------------------------ *)

(* Each receive pop, wired to a sink, under a PDU shorter than its header
   and under a header whose length field (1000) overruns the 4 payload
   bytes present: a counted drop, never an exception, nothing delivered.
   Columns: protocol, header size, magic, length-field offset, and how to
   build the pop over a domain, header allocator and upper protocol. *)
let malformed_protocols =
  let null d = Protocol.create ~name:"null" ~dom:d () in
  [
    ( "ip", Ip.header_size, 0x4950, 14,
      fun d alloc up ->
        let ip = Ip.create ~dom:d ~below:(null d) ~header_alloc:alloc () in
        Ip.set_up ip up;
        (Ip.proto ip).Protocol.pop );
    ( "udp", Udp.header_size, 0x5544, 6,
      fun d alloc up ->
        let udp = Udp.create ~dom:d ~below:(null d) ~header_alloc:alloc () in
        Udp.bind udp ~port:0 up;
        (Udp.proto udp).Protocol.pop );
    ( "rtp", Rtp.header_size, 0x5254, 8,
      fun d alloc up ->
        let r =
          Rtp.create_receiver ~dom:d ~ack_below:(null d) ~header_alloc:alloc ()
        in
        Rtp.set_up r up;
        (Rtp.receiver_proto r).Protocol.pop );
  ]

let test_malformed_pdus_are_counted_drops () =
  List.iter
    (fun (proto, size, magic, len_at, make_pop) ->
      List.iter
        (fun (shape, stat) ->
          let tb = Testbed.create () in
          let d = Testbed.user_domain tb "d" in
          let alloc =
            Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile
          in
          let sink = Testproto.sink ~dom:d () in
          let pop = make_pop d alloc (Testproto.sink_proto sink) in
          let bytes =
            if shape = "short" then Bytes.make 5 '\001'
            else begin
              (* kind byte 2 = 1 marks an RTP data PDU; IP reads it as
                 part of its total length, UDP as its source port. *)
              let b = Bytes.make (size + 4) '\000' in
              Header.set_u16 b 0 magic;
              Bytes.set b 2 '\001';
              Header.set_u32 b len_at 1000;
              b
            end
          in
          let fb = Allocator.alloc alloc ~npages:1 in
          Fbuf_api.write_bytes fb ~as_:d ~off:0 bytes;
          let stats = tb.Testbed.m.Machine.stats in
          let name = Printf.sprintf "%s %s" proto shape in
          (match pop (Msg.of_fbuf fb ~off:0 ~len:(Bytes.length bytes)) with
          | () -> ()
          | exception e ->
              Alcotest.failf "%s: raised %s" name (Printexc.to_string e));
          check Alcotest.int (name ^ ": counted") 1 (Stats.get stats stat);
          check Alcotest.int (name ^ ": not delivered") 0
            (Testproto.received sink))
        [ ("short", proto ^ ".short_pdu"); ("overlong", proto ^ ".bad_length") ])
    malformed_protocols

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "protocols"
    [
      ( "headers",
        [
          tc "u16 roundtrip" `Quick test_u16_roundtrip;
          tc "u32 roundtrip" `Quick test_u32_roundtrip;
          tc "prepend and peek" `Quick test_prepend_and_peek;
        ] );
      ( "single-domain",
        [
          tc "loopback delivery" `Quick test_loopback_single_domain_delivery;
          tc "payload path exercised" `Quick
            test_payload_integrity_through_stack;
          tc "fragmentation counts" `Quick test_fragmentation_counts;
          tc "small message not fragmented" `Quick
            test_small_message_not_fragmented;
          tc "reassembly byte integrity" `Quick test_reassembly_byte_integrity;
          tc "udp demux by port" `Quick test_udp_demux_by_port;
          tc "udp unbound port drops" `Quick test_udp_unbound_port_drops;
          tc "udp checksum validates" `Quick test_udp_checksum_validates;
          tc "udp checksum detects corruption" `Quick
            test_udp_checksum_detects_corruption;
        ] );
      ( "malformed",
        [
          tc "short and overlong PDUs are counted drops" `Quick
            test_malformed_pdus_are_counted_drops;
        ] );
      ( "multi-domain",
        [
          tc "three-domain delivery" `Quick test_three_domain_delivery;
          tc "steady state no leaks" `Quick
            test_three_domain_steady_state_no_leaks;
          tc "uncached works" `Quick test_three_domain_uncached_works;
          tc "cached faster than uncached" `Quick
            test_cached_faster_than_uncached_stack;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_any_size_survives_stack;
          QCheck_alcotest.to_alcotest prop_fragment_count;
        ] );
    ]
