(* Tests for the hardware layer: topology, CPU scheduler, memory
   accounting, disks and network. *)

open Danaus_sim
open Danaus_hw

let check_float = Alcotest.(check (float 1e-9))
let check_floatish = Alcotest.(check (float 1e-3))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_paper () =
  let t = Topology.paper_machine () in
  check_int "64 cores" 64 (Topology.total_cores t);
  check_int "32 groups" 32 (Topology.group_count t);
  check_int "core 5 in group 2" 2 (Topology.group_of_core t 5);
  Alcotest.(check (array int)) "group 2 cores" [| 4; 5 |] (Topology.cores_of_group t 2)

let test_topology_range () =
  let t = Topology.paper_machine () in
  Alcotest.(check (array int)) "range" [| 2; 3 |] (Topology.core_range t ~first:2 ~count:2);
  Alcotest.check_raises "out of machine"
    (Invalid_argument "Topology.core_range: outside machine") (fun () ->
      ignore (Topology.core_range t ~first:63 ~count:2))

(* ------------------------------------------------------------------ *)
(* Cpu *)

let test_cpu_serialises_on_one_core () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () -> Cpu.compute cpu ~tenant:"t" ~eligible:[| 0 |] 1.0)
  done;
  Engine.run e;
  check_floatish "3s of work on 1 core" 3.0 (Engine.now e);
  check_floatish "busy accounted" 3.0 (Cpu.busy_seconds cpu ~cores:[| 0 |])

let test_cpu_parallel_on_two_cores () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2 in
  for _ = 1 to 2 do
    Engine.spawn e (fun () -> Cpu.compute cpu ~tenant:"t" ~eligible:[| 0; 1 |] 1.0)
  done;
  Engine.run e;
  check_floatish "parallel completion" 1.0 (Engine.now e)

(* A released core goes to the oldest waiter that may run on it, even
   when older waiters for other cores sit ahead; a waiter eligible on
   two cores is served once, by whichever frees first. *)
let test_cpu_oldest_eligible_waiter () =
  let e = Engine.create () in
  let cpu = Cpu.create ~quantum:1.0 e ~cores:2 in
  let finished = Hashtbl.create 8 in
  let job name eligible =
    Engine.spawn e (fun () ->
        Cpu.compute cpu ~tenant:name ~eligible 1.0;
        Hashtbl.replace finished name (Engine.time ()))
  in
  job "a" [| 0 |];
  job "b" [| 1 |];
  job "w1" [| 1 |];
  job "w2" [| 0; 1 |];
  job "w3" [| 0 |];
  Engine.run_until e 0.5;
  check_int "three queued" 3 (Cpu.waiting cpu);
  Engine.run_until e 1.5;
  check_int "w3 still queued" 1 (Cpu.waiting cpu);
  Engine.run e;
  check_int "all served" 0 (Cpu.waiting cpu);
  List.iter
    (fun (name, at) -> check_floatish (name ^ " finish") at (Hashtbl.find finished name))
    [ ("a", 1.0); ("b", 1.0); ("w1", 2.0); ("w2", 2.0); ("w3", 3.0) ];
  check_floatish "w2 ran on core 0" 1.0
    (Cpu.busy_seconds_by cpu ~cores:[| 0 |] ~tenant:"w2");
  check_floatish "w1 ran on core 1" 1.0
    (Cpu.busy_seconds_by cpu ~cores:[| 1 |] ~tenant:"w1");
  check_floatish "core 1 idle once w1 is done" 2.0
    (Cpu.busy_seconds cpu ~cores:[| 1 |])

let test_cpu_tenant_attribution () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2 in
  Engine.spawn e (fun () -> Cpu.compute cpu ~tenant:"a" ~eligible:[| 0 |] 2.0);
  Engine.spawn e (fun () -> Cpu.compute cpu ~tenant:"b" ~eligible:[| 1 |] 3.0);
  Engine.run e;
  check_floatish "tenant a" 2.0 (Cpu.busy_seconds_by cpu ~cores:[| 0; 1 |] ~tenant:"a");
  check_floatish "tenant b" 3.0 (Cpu.busy_seconds_by cpu ~cores:[| 0; 1 |] ~tenant:"b");
  check_floatish "utilization of b on core 1 over 3s" 100.0
    (Cpu.utilization_pct cpu ~cores:[| 1 |] ~tenant:"b" ~elapsed:3.0)

let test_cpu_steal_visibility () =
  (* A tenant allowed on all cores spills onto the core reserved by the
     other tenant — the situation behind the paper's Fig. 1a. *)
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2 in
  Engine.spawn e (fun () ->
      (* greedy tenant with two concurrent workers allowed everywhere *)
      Engine.fork (fun () -> Cpu.compute cpu ~tenant:"greedy" ~eligible:[| 0; 1 |] 1.0);
      Cpu.compute cpu ~tenant:"greedy" ~eligible:[| 0; 1 |] 1.0);
  Engine.run e;
  let stolen = Cpu.busy_seconds_by cpu ~cores:[| 1 |] ~tenant:"greedy" in
  check_bool "greedy tenant used the reserved core" true (stolen > 0.5)

let test_cpu_fifo_fairness_quantum () =
  (* With quantum slicing, two long jobs on one core should interleave
     and finish at (almost) the same time, not strictly one after the
     other. *)
  let e = Engine.create () in
  let cpu = Cpu.create ~quantum:0.001 e ~cores:1 in
  let finish = Array.make 2 0.0 in
  for i = 0 to 1 do
    Engine.spawn e (fun () ->
        Cpu.compute cpu ~tenant:"t" ~eligible:[| 0 |] 1.0;
        finish.(i) <- Engine.time ())
  done;
  Engine.run e;
  check_bool "both finish near 2s" true
    (Float.abs (finish.(0) -. finish.(1)) < 0.01)

let test_cpu_usage_breakdown () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  Engine.spawn e (fun () -> Cpu.compute cpu ~tenant:"x" ~eligible:[| 0 |] 1.0);
  Engine.spawn e (fun () -> Cpu.compute cpu ~tenant:"y" ~eligible:[| 0 |] 2.0);
  Engine.run e;
  match Cpu.usage_breakdown cpu ~cores:[| 0 |] with
  | [ ("x", bx); ("y", by) ] ->
      check_floatish "x busy" 1.0 bx;
      check_floatish "y busy" 2.0 by
  | _ -> Alcotest.fail "unexpected breakdown"

let test_cpu_reset_usage () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  Engine.spawn e (fun () -> Cpu.compute cpu ~tenant:"x" ~eligible:[| 0 |] 1.0);
  Engine.run e;
  Cpu.reset_usage cpu;
  check_float "cleared" 0.0 (Cpu.busy_seconds cpu ~cores:[| 0 |])

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_accounting () =
  let m = Memory.create ~name:"pool" ~limit:100 () in
  Memory.alloc m 60;
  Memory.alloc m 60;
  check_int "used" 120 (Memory.used m);
  check_int "high water" 120 (Memory.high_water m);
  check_int "over limit" 20 (Memory.over_limit m);
  Memory.free m 100;
  check_int "after free" 20 (Memory.used m);
  check_int "high water survives" 120 (Memory.high_water m);
  Alcotest.check_raises "over-free"
    (Invalid_argument "Memory.free: pool: freeing 50 of 20") (fun () ->
      Memory.free m 50)

(* ------------------------------------------------------------------ *)
(* Disk *)

let test_disk_service_time () =
  let e = Engine.create () in
  let d = Disk.create e ~name:"hdd" ~bandwidth:100.0 ~latency:0.5 ~seek:0.2 in
  Engine.spawn e (fun () -> Disk.read d ~bytes:100 ~random:false);
  Engine.run e;
  check_floatish "latency + transfer" 1.5 (Engine.now e);
  let e2 = Engine.create () in
  let d2 = Disk.create e2 ~name:"hdd" ~bandwidth:100.0 ~latency:0.5 ~seek:0.2 in
  Engine.spawn e2 (fun () -> Disk.write d2 ~bytes:100 ~random:true);
  Engine.run e2;
  check_floatish "random adds seek" 1.7 (Engine.now e2)

let test_disk_fifo_queue () =
  let e = Engine.create () in
  let d = Disk.create e ~name:"hdd" ~bandwidth:100.0 ~latency:0.0 ~seek:0.0 in
  for _ = 1 to 3 do
    Engine.spawn e (fun () -> Disk.read d ~bytes:100 ~random:false)
  done;
  Engine.run e;
  check_floatish "serialised requests" 3.0 (Engine.now e);
  check_floatish "bytes counted" 300.0 (Disk.bytes_transferred d)

let test_raid0_parallelism () =
  let e = Engine.create () in
  let members =
    Array.init 4 (fun i ->
        Disk.create e ~name:(Printf.sprintf "d%d" i) ~bandwidth:100.0 ~latency:0.0
          ~seek:0.0)
  in
  let arr = Disk.raid0 ~chunk:100 members in
  Engine.spawn e (fun () -> Disk.read arr ~bytes:400 ~random:false);
  Engine.run e;
  (* 400 bytes striped over 4 disks at 100 B/s each -> 1 second *)
  check_floatish "striping speedup" 1.0 (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Net *)

let test_net_transfer_time () =
  let e = Engine.create () in
  let net = Net.create e in
  let a = Net.add_node net ~name:"a" ~bandwidth:1000.0 ~latency:0.1 in
  let b = Net.add_node net ~name:"b" ~bandwidth:1000.0 ~latency:0.1 in
  Engine.spawn e (fun () -> Net.transfer net ~src:a ~dst:b ~bytes:1000);
  Engine.run e;
  (* tx 1s + latency 0.1 + rx 1s *)
  check_floatish "end to end" 2.1 (Engine.now e);
  check_floatish "bytes sent" 1000.0 (Net.bytes_sent a)

let test_net_receiver_congestion () =
  let e = Engine.create () in
  let net = Net.create e in
  let a = Net.add_node net ~name:"a" ~bandwidth:1000.0 ~latency:0.0 in
  let b = Net.add_node net ~name:"b" ~bandwidth:1000.0 ~latency:0.0 in
  let dst = Net.add_node net ~name:"dst" ~bandwidth:1000.0 ~latency:0.0 in
  Engine.spawn e (fun () -> Net.transfer net ~src:a ~dst ~bytes:1000);
  Engine.spawn e (fun () -> Net.transfer net ~src:b ~dst ~bytes:1000);
  Engine.run e;
  (* both senders transmit in parallel (1s each) but the receiver's RX
     serialises the two arrivals: 1s tx + 2s rx on the shared side *)
  check_floatish "incast queueing" 3.0 (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_cpu_conservation =
  QCheck.Test.make ~name:"cpu busy time equals requested work" ~count:50
    QCheck.(
      pair (int_range 1 4) (list_of_size Gen.(int_range 1 10) (float_range 0.001 0.5)))
    (fun (ncores, jobs) ->
      let e = Engine.create () in
      let cpu = Cpu.create e ~cores:ncores in
      let eligible = Array.init ncores (fun i -> i) in
      List.iter
        (fun dt -> Engine.spawn e (fun () -> Cpu.compute cpu ~tenant:"t" ~eligible dt))
        jobs;
      Engine.run e;
      let want = List.fold_left ( +. ) 0.0 jobs in
      Float.abs (Cpu.busy_seconds cpu ~cores:eligible -. want) < 1e-6)

let prop_memory_highwater =
  QCheck.Test.make ~name:"high water >= used at all times" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 40) (int_range 0 1000))
    (fun allocs ->
      let m = Memory.create ~name:"m" () in
      List.iter
        (fun a ->
          Memory.alloc m a;
          if Memory.used m > 0 && a mod 2 = 0 then Memory.free m (Memory.used m / 2))
        allocs;
      Memory.high_water m >= Memory.used m)

let prop_disk_bytes_conserved =
  QCheck.Test.make ~name:"raid0 conserves bytes" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 0 100000))
    (fun (n, bytes) ->
      let e = Engine.create () in
      let members =
        Array.init n (fun i ->
            Disk.create e ~name:(string_of_int i) ~bandwidth:1e9 ~latency:0.0 ~seek:0.0)
      in
      let arr = Disk.raid0 ~chunk:4096 members in
      Engine.spawn e (fun () -> Disk.write arr ~bytes ~random:false);
      Engine.run e;
      Float.abs (Disk.bytes_transferred arr -. float_of_int bytes) < 0.5)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "hw.topology",
      [
        tc "paper machine" `Quick test_topology_paper;
        tc "core ranges" `Quick test_topology_range;
      ] );
    ( "hw.cpu",
      [
        tc "serialises on one core" `Quick test_cpu_serialises_on_one_core;
        tc "parallel on two cores" `Quick test_cpu_parallel_on_two_cores;
        tc "tenant attribution" `Quick test_cpu_tenant_attribution;
        tc "steal visibility" `Quick test_cpu_steal_visibility;
        tc "quantum fairness" `Quick test_cpu_fifo_fairness_quantum;
        tc "usage breakdown" `Quick test_cpu_usage_breakdown;
        tc "reset usage" `Quick test_cpu_reset_usage;
        tc "oldest eligible waiter" `Quick test_cpu_oldest_eligible_waiter;
      ] );
    ("hw.memory", [ tc "accounting" `Quick test_memory_accounting ]);
    ( "hw.disk",
      [
        tc "service time" `Quick test_disk_service_time;
        tc "fifo queue" `Quick test_disk_fifo_queue;
        tc "raid0 parallelism" `Quick test_raid0_parallelism;
      ] );
    ( "hw.net",
      [
        tc "transfer time" `Quick test_net_transfer_time;
        tc "receiver congestion" `Quick test_net_receiver_congestion;
      ] );
    ( "hw.properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_cpu_conservation; prop_memory_highwater; prop_disk_bytes_conserved ] );
  ]

let test_zero_byte_io () =
  let e = Engine.create () in
  let d = Disk.create e ~name:"d" ~bandwidth:100.0 ~latency:0.5 ~seek:0.0 in
  let net = Net.create e in
  let a = Net.add_node net ~name:"a" ~bandwidth:1e6 ~latency:0.1 in
  let b = Net.add_node net ~name:"b" ~bandwidth:1e6 ~latency:0.1 in
  Engine.spawn e (fun () ->
      Disk.read d ~bytes:0 ~random:false;
      Net.transfer net ~src:a ~dst:b ~bytes:0);
  Engine.run e;
  (* zero-byte ops still pay latency, not bandwidth *)
  Alcotest.(check (float 1e-6)) "latencies only" 0.6 (Engine.now e)

let test_pheap_peek_clear () =
  let open Danaus_sim in
  let h = Pheap.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty peek" true (Pheap.peek h = None);
  Pheap.push h 3;
  Pheap.push h 1;
  Alcotest.(check bool) "peek is min" true (Pheap.peek h = Some 1);
  check_int "size" 2 (Pheap.size h);
  Pheap.clear h;
  Alcotest.(check bool) "cleared" true (Pheap.is_empty h)

let misc_hw_suite =
  let tc = Alcotest.test_case in
  [
    ( "hw.misc",
      [
        tc "zero-byte I/O" `Quick test_zero_byte_io;
        tc "pheap peek/clear" `Quick test_pheap_peek_clear;
      ] );
  ]

let suite = suite @ misc_hw_suite
