(* Tests for the simulated Osiris adapter, the null-modem link, and the
   bandwidth caps of the hardware model. *)

open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Osiris = Fbufs_netdev.Osiris
module Testbed = Fbufs_harness.Testbed
module Testproto = Fbufs_protocols.Testproto

let check = Alcotest.check

type pair = {
  des : Des.t;
  tb1 : Testbed.t;
  tb2 : Testbed.t;
  ad1 : Osiris.t;
  ad2 : Osiris.t;
}

let setup () =
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:1 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:2 () in
  let ad1 =
    Osiris.create ~m:tb1.Testbed.m ~des ~region:tb1.Testbed.region
      ~kernel:tb1.Testbed.kernel ()
  in
  let ad2 =
    Osiris.create ~m:tb2.Testbed.m ~des ~region:tb2.Testbed.region
      ~kernel:tb2.Testbed.kernel ()
  in
  Osiris.connect ad1 ad2;
  { des; tb1; tb2; ad1; ad2 }

let kernel_msg tb bytes fill =
  let alloc =
    Testbed.allocator tb ~domains:[ tb.Testbed.kernel ] Fbuf.cached_volatile
  in
  Testproto.make_message ~alloc ~as_:tb.Testbed.kernel ~bytes ?fill ()

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

let test_pdu_delivery_integrity () =
  let p = setup () in
  let got = ref "" in
  Osiris.set_rx_handler p.ad2 (fun ~vci msg ->
      check Alcotest.int "vci" 7 vci;
      got := Msg.to_string msg ~as_:p.tb2.Testbed.kernel;
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let msg = kernel_msg p.tb1 640 (Some "payload-pattern-") in
  Osiris.send_pdu p.ad1 ~vci:7 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  let expected = String.init 640 (fun i -> "payload-pattern-".[i mod 16]) in
  check Alcotest.string "bytes across the wire" expected !got

let pattern bytes fill = String.init bytes (fun i -> fill.[i mod String.length fill])

(* The adapter captures a PDU's bytes when [send_pdu] returns: overwriting
   the sender's fbuf while the PDU is in flight must not reach the wire,
   and a recycled staging buffer must not leak one PDU into the next. *)
let test_in_flight_pdus_keep_their_bytes () =
  let p = setup () in
  let k1 = p.tb1.Testbed.kernel and k2 = p.tb2.Testbed.kernel in
  let got = ref [] in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      got := Msg.to_string msg ~as_:k2 :: !got;
      Msg.free_held msg ~dom:k2);
  let round cases =
    got := [];
    List.iter
      (fun (bytes, fill) ->
        let msg = kernel_msg p.tb1 bytes (Some fill) in
        Osiris.send_pdu p.ad1 ~vci:1 msg;
        let fb = List.hd (Msg.fbufs msg) in
        Fbuf_api.write fb ~as_:k1 ~off:0 (String.make bytes '#');
        Msg.free_held msg ~dom:k1)
      cases;
    Des.run p.des;
    check
      Alcotest.(list string)
      "each delivery byte-exact"
      (List.map (fun (bytes, fill) -> pattern bytes fill) cases)
      (List.rev !got)
  in
  (* Sub-page, page-crossing and over 16 KB; the second round runs on the
     staging buffers the first one recycled. *)
  let cases = [ (100, "sub-page/"); (6000, "crossing|"); (20000, "large~") ] in
  round cases;
  round (List.map (fun (bytes, fill) -> (bytes, String.uppercase_ascii fill)) cases)

let test_lost_pdu_returns_staging () =
  let p = setup () in
  let k2 = p.tb2.Testbed.kernel in
  let got = ref [] in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      got := Msg.to_string msg ~as_:k2 :: !got;
      Msg.free_held msg ~dom:k2);
  let send bytes fill =
    let msg = kernel_msg p.tb1 bytes (Some fill) in
    Osiris.send_pdu p.ad1 ~vci:1 msg;
    Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
    Des.run p.des
  in
  Osiris.set_loss_rate p.ad1 1.0;
  send 9000 "lost-payload-";
  check Alcotest.int "first PDU lost" 1 (Osiris.pdus_dropped p.ad1);
  Osiris.set_loss_rate p.ad1 0.0;
  send 3000 "second.";
  check
    Alcotest.(list string)
    "only the second PDU arrives, exact" [ pattern 3000 "second." ] !got

let test_unconnected_send_rejected () =
  let des = Des.create () in
  let tb = Testbed.create () in
  let ad =
    Osiris.create ~m:tb.Testbed.m ~des ~region:tb.Testbed.region
      ~kernel:tb.Testbed.kernel ()
  in
  let msg = kernel_msg tb 100 None in
  Alcotest.(check bool) "raises" true
    (try
       Osiris.send_pdu ad ~vci:1 msg;
       false
     with Invalid_argument _ -> true)

let test_multi_pdu_ordering () =
  let p = setup () in
  let order = ref [] in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      order := Msg.length msg :: !order;
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  List.iter
    (fun bytes ->
      let msg = kernel_msg p.tb1 bytes None in
      Osiris.send_pdu p.ad1 ~vci:1 msg;
      Msg.free_held msg ~dom:p.tb1.Testbed.kernel)
    [ 100; 200; 300 ];
  Des.run p.des;
  check Alcotest.(list int) "in order" [ 100; 200; 300 ] (List.rev !order)

let test_bidirectional_traffic () =
  let p = setup () in
  let rx1 = ref 0 and rx2 = ref 0 in
  Osiris.set_rx_handler p.ad1 (fun ~vci:_ msg ->
      incr rx1;
      Msg.free_held msg ~dom:p.tb1.Testbed.kernel);
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      incr rx2;
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let m1 = kernel_msg p.tb1 512 None in
  let m2 = kernel_msg p.tb2 512 None in
  Osiris.send_pdu p.ad1 ~vci:1 m1;
  Osiris.send_pdu p.ad2 ~vci:2 m2;
  Msg.free_held m1 ~dom:p.tb1.Testbed.kernel;
  Msg.free_held m2 ~dom:p.tb2.Testbed.kernel;
  Des.run p.des;
  check Alcotest.int "host1 received" 1 !rx1;
  check Alcotest.int "host2 received" 1 !rx2

(* ------------------------------------------------------------------ *)
(* VCI demux into cached fbufs                                         *)
(* ------------------------------------------------------------------ *)

let test_registered_vci_uses_cached_fbufs () =
  let p = setup () in
  Osiris.register_path p.ad2 ~vci:5 ~domains:[ p.tb2.Testbed.kernel ];
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  for _ = 1 to 4 do
    let msg = kernel_msg p.tb1 8000 None in
    Osiris.send_pdu p.ad1 ~vci:5 msg;
    Msg.free_held msg ~dom:p.tb1.Testbed.kernel
  done;
  Des.run p.des;
  check Alcotest.int "no uncached arrivals" 0 (Osiris.uncached_rx_pdus p.ad2);
  match Osiris.rx_allocator p.ad2 ~vci:5 with
  | None -> Alcotest.fail "allocator missing"
  | Some a ->
      check Alcotest.int "buffer parked for reuse" 1
        (Allocator.free_list_length a)

let test_unknown_vci_falls_back_to_uncached () =
  let p = setup () in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let msg = kernel_msg p.tb1 3000 None in
  Osiris.send_pdu p.ad1 ~vci:99 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  check Alcotest.int "uncached arrival" 1 (Osiris.uncached_rx_pdus p.ad2)

let test_path_limit_evicts_lru () =
  let p = setup () in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  for vci = 1 to Osiris.max_cached_paths do
    (* Distinct registration times make the LRU order deterministic. *)
    Machine.charge p.tb2.Testbed.m 1.0;
    Osiris.register_path p.ad2 ~vci ~domains:[ p.tb2.Testbed.kernel ]
  done;
  (* Touch path 1 so it is the most recently used; path 2 becomes LRU. *)
  let msg = kernel_msg p.tb1 256 None in
  Osiris.send_pdu p.ad1 ~vci:1 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  Osiris.register_path p.ad2 ~vci:17 ~domains:[ p.tb2.Testbed.kernel ];
  check Alcotest.int "one eviction" 1 (Osiris.evictions p.ad2);
  Alcotest.(check bool) "recently used path survives" true
    (Osiris.rx_allocator p.ad2 ~vci:1 <> None);
  Alcotest.(check bool) "LRU path evicted" true
    (Osiris.rx_allocator p.ad2 ~vci:2 = None);
  (* Traffic on the evicted path still flows, just uncached. *)
  let msg = kernel_msg p.tb1 256 None in
  Osiris.send_pdu p.ad1 ~vci:2 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  check Alcotest.int "uncached fallback" 1 (Osiris.uncached_rx_pdus p.ad2)

let test_rx_path_must_start_at_kernel () =
  let p = setup () in
  let user = Testbed.user_domain p.tb2 "app" in
  Alcotest.(check bool) "raises" true
    (try
       Osiris.register_path p.ad2 ~vci:3 ~domains:[ user ];
       false
     with Invalid_argument _ -> true)

let test_uncached_slack_is_cleared () =
  (* Security: the unused tail of an uncached receive buffer must not leak
     another domain's old data. Each PDU length lands on frames that were
     just dirtied and freed, and ends before, on and after a page
     boundary. *)
  let p = setup () in
  let k2 = p.tb2.Testbed.kernel in
  let ps = Testbed.page_size p.tb2 in
  let dirty_alloc = Testbed.allocator p.tb2 ~domains:[ k2 ] Fbuf.plain in
  let payload = ref "" and slack = ref "" in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      (* Read beyond the PDU inside the same fbuf. *)
      let fb = List.hd (Msg.fbufs msg) in
      let len = Msg.length msg in
      payload := Msg.to_string msg ~as_:k2;
      slack := Fbuf_api.read_string fb ~as_:k2 ~off:len ~len:(Fbuf.size fb - len);
      Msg.free_held msg ~dom:k2);
  List.iter
    (fun len ->
      let dirty =
        Testproto.make_message ~alloc:dirty_alloc ~as_:k2 ~bytes:(4 * ps)
          ~fill:"SECRET" ()
      in
      Msg.free_held dirty ~dom:k2;
      let msg = kernel_msg p.tb1 len (Some "payload-") in
      Osiris.send_pdu p.ad1 ~vci:88 msg;
      Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
      Des.run p.des;
      let npages = (len + ps - 1) / ps in
      check Alcotest.string
        (Printf.sprintf "%d B: payload intact" len)
        (pattern len "payload-") !payload;
      check Alcotest.string
        (Printf.sprintf "%d B: slack reads as zeros" len)
        (String.make ((npages * ps) - len) '\000')
        !slack)
    [ ps - 1; ps; ps + 1; (3 * ps) + 5 ]

let test_no_demux_pays_copy () =
  (* An Ethernet-style adapter (no hardware demux) must copy each PDU from
     the fixed pool into the chosen fbuf. *)
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:1 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:2 () in
  let ad1 =
    Osiris.create ~m:tb1.Testbed.m ~des ~region:tb1.Testbed.region
      ~kernel:tb1.Testbed.kernel ()
  in
  let ad2 =
    Osiris.create ~m:tb2.Testbed.m ~des ~region:tb2.Testbed.region
      ~kernel:tb2.Testbed.kernel ~hw_demux:false ()
  in
  Osiris.connect ad1 ad2;
  let got = ref "" in
  Osiris.set_rx_handler ad2 (fun ~vci:_ msg ->
      got := Msg.to_string msg ~as_:tb2.Testbed.kernel;
      Msg.free_held msg ~dom:tb2.Testbed.kernel);
  let bytes = 8192 in
  let cp = Machine.checkpoint tb2.Testbed.m in
  let msg = kernel_msg tb1 bytes (Some "ether") in
  Osiris.send_pdu ad1 ~vci:1 msg;
  Msg.free_held msg ~dom:tb1.Testbed.kernel;
  Des.run des;
  check Alcotest.int "one software copy" 1 (Osiris.software_demux_copies ad2);
  check Alcotest.string "data still intact"
    (String.init bytes (fun i -> "ether".[i mod 5]))
    !got;
  let _, busy0 = cp in
  let rx_cpu = Machine.busy_us tb2.Testbed.m -. busy0 in
  let copy_cost =
    float_of_int bytes
    *. tb2.Testbed.m.Machine.cost.Cost_model.copy_per_byte
  in
  Alcotest.(check bool)
    (Printf.sprintf "rx cpu %.0f includes the copy (%.0f)" rx_cpu copy_cost)
    true
    (rx_cpu >= copy_cost)

let test_multi_flow_paths_independent () =
  (* Four concurrent flows, each to its own path and cached pool: traffic
     on one flow must not disturb another's buffers, and each flow reaches
     buffer steady state. *)
  let p = setup () in
  let k2 = p.tb2.Testbed.kernel in
  let received = Array.make 5 0 in
  for vci = 1 to 4 do
    Osiris.register_path p.ad2 ~vci ~domains:[ k2 ]
  done;
  Osiris.set_rx_handler p.ad2 (fun ~vci msg ->
      received.(vci) <- received.(vci) + 1;
      Msg.free_held msg ~dom:k2);
  for round = 1 to 6 do
    ignore round;
    for vci = 1 to 4 do
      let msg = kernel_msg p.tb1 (4096 * vci) None in
      Osiris.send_pdu p.ad1 ~vci msg;
      Msg.free_held msg ~dom:p.tb1.Testbed.kernel
    done
  done;
  Des.run p.des;
  for vci = 1 to 4 do
    check Alcotest.int (Printf.sprintf "flow %d complete" vci) 6 received.(vci);
    match Osiris.rx_allocator p.ad2 ~vci with
    | None -> Alcotest.fail "allocator missing"
    | Some a ->
        check Alcotest.int
          (Printf.sprintf "flow %d steady state" vci)
          1
          (Allocator.free_list_length a)
  done;
  check Alcotest.int "nothing fell to uncached" 0
    (Osiris.uncached_rx_pdus p.ad2)

(* ------------------------------------------------------------------ *)
(* Bandwidth model                                                     *)
(* ------------------------------------------------------------------ *)

let measured_link_mbps p bytes npdus =
  let finish = ref 0.0 in
  let received = ref 0 in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      incr received;
      if !received = npdus then finish := Machine.now p.tb2.Testbed.m;
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  for _ = 1 to npdus do
    let msg = kernel_msg p.tb1 bytes None in
    Osiris.send_pdu p.ad1 ~vci:1 msg;
    Msg.free_held msg ~dom:p.tb1.Testbed.kernel
  done;
  Des.run p.des;
  float_of_int (bytes * npdus) *. 8.0 /. !finish

let test_link_respects_contended_cap () =
  let p = setup () in
  Osiris.register_path p.ad2 ~vci:1 ~domains:[ p.tb2.Testbed.kernel ];
  let mbps = measured_link_mbps p 16384 32 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f Mb/s within (250, 290)" mbps)
    true
    (mbps > 250.0 && mbps < 290.0)

let test_cell_accounting () =
  let p = setup () in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let msg = kernel_msg p.tb1 480 None in
  Osiris.send_pdu p.ad1 ~vci:1 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  (* 480 payload + 8 trailer = 488 -> ceil(488/48) = 11 cells. *)
  check Alcotest.int "cells" 11 (Osiris.cells_sent p.ad1)

let test_dma_unblocks_sender_cpu () =
  let p = setup () in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let m1 = p.tb1.Testbed.m in
  let msg = kernel_msg p.tb1 65536 None in
  let t0 = Machine.now m1 in
  Osiris.send_pdu p.ad1 ~vci:1 msg;
  let cpu_time = Machine.now m1 -. t0 in
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  (* 64 KB at ~285 Mb/s is ~1.8 ms of wire time; the CPU must only pay the
     driver cost, not wait for the DMA. *)
  Alcotest.(check bool)
    (Printf.sprintf "cpu %.0f us << wire time" cpu_time)
    true (cpu_time < 500.0);
  Des.run p.des

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "netdev"
    [
      ( "delivery",
        [
          tc "pdu integrity" `Quick test_pdu_delivery_integrity;
          tc "in-flight pdus keep their bytes" `Quick
            test_in_flight_pdus_keep_their_bytes;
          tc "lost pdu returns its staging buffer" `Quick
            test_lost_pdu_returns_staging;
          tc "unconnected send rejected" `Quick test_unconnected_send_rejected;
          tc "multi-pdu ordering" `Quick test_multi_pdu_ordering;
          tc "bidirectional traffic" `Quick test_bidirectional_traffic;
        ] );
      ( "vci-demux",
        [
          tc "registered vci uses cached fbufs" `Quick
            test_registered_vci_uses_cached_fbufs;
          tc "unknown vci falls back" `Quick
            test_unknown_vci_falls_back_to_uncached;
          tc "16-path LRU replacement" `Quick test_path_limit_evicts_lru;
          tc "rx path starts at kernel" `Quick test_rx_path_must_start_at_kernel;
          tc "uncached slack cleared" `Quick test_uncached_slack_is_cleared;
          tc "no-demux adapter pays copy" `Quick test_no_demux_pays_copy;
          tc "multi-flow paths independent" `Quick
            test_multi_flow_paths_independent;
        ] );
      ( "bandwidth",
        [
          tc "contended cap" `Quick test_link_respects_contended_cap;
          tc "cell accounting" `Quick test_cell_accounting;
          tc "dma unblocks sender" `Quick test_dma_unblocks_sender_cpu;
        ] );
    ]
