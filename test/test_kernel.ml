(* Tests for the simulated host kernel: page cache, writeback/flusher,
   syscall accounting, local filesystem and FUSE transport. *)

open Danaus_sim
open Danaus_hw
open Danaus_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_floatish = Alcotest.(check (float 1e-3))

let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024

let make_kernel ?(cores = 4) ?(page_cache_limit = gib 1) () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores in
  let activated = Array.init cores (fun i -> i) in
  let k = Kernel.create e ~cpu ~activated ~page_cache_limit in
  (e, cpu, k)

let pool_of ?(name = "pool0") ?(cores = [| 0; 1 |]) ?(mem = gib 8) () =
  Cgroup.create ~name ~cores ~mem_limit:mem

(* ------------------------------------------------------------------ *)
(* Page cache *)

let test_pc_miss_then_hit () =
  let e, _, k = make_kernel () in
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(mib 64) () in
  let f = Page_cache.file pc m ~key:"a" ~flush:(fun ~bytes:_ -> ()) in
  Engine.spawn e (fun () ->
      check_int "all missing" (mib 1) (Page_cache.missing f ~off:0 ~len:(mib 1));
      Page_cache.insert_clean f ~off:0 ~len:(mib 1);
      check_int "hit after insert" 0 (Page_cache.missing f ~off:0 ~len:(mib 1));
      check_int "beyond still missing" (mib 1)
        (Page_cache.missing f ~off:(mib 1) ~len:(mib 1)));
  Engine.run e

let test_pc_dirty_accounting () =
  let e, _, k = make_kernel () in
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(mib 64) () in
  let f = Page_cache.file pc m ~key:"a" ~flush:(fun ~bytes:_ -> ()) in
  Engine.spawn e (fun () ->
      Page_cache.write f ~off:0 ~len:(mib 2);
      check_int "dirty bytes" (mib 2) (Page_cache.dirty_bytes pc m);
      check_int "file dirty" (mib 2) (Page_cache.dirty_bytes_of f);
      (* rewriting the same range does not double count *)
      Page_cache.write f ~off:0 ~len:(mib 2);
      check_int "no double count" (mib 2) (Page_cache.dirty_bytes pc m));
  Engine.run e

let test_pc_take_dirty_oldest_first () =
  let e, _, k = make_kernel () in
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(mib 64) () in
  let f = Page_cache.file pc m ~key:"a" ~flush:(fun ~bytes:_ -> ()) in
  Engine.spawn e (fun () ->
      Page_cache.write f ~off:0 ~len:(mib 1);
      Engine.sleep 10.0;
      Page_cache.write f ~off:(mib 1) ~len:(mib 1);
      (* only the first MiB is older than t=5 *)
      let work =
        Page_cache.take_dirty pc m ~older_than:5.0 ~max_bytes:max_int
      in
      let bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 work in
      check_int "only expired taken" (mib 1) bytes;
      (* selected data stays accounted until writeback completes *)
      check_int "still counted while under writeback" (mib 2)
        (Page_cache.dirty_bytes pc m);
      Page_cache.writeback_complete pc m ~bytes;
      check_int "rest still dirty" (mib 1) (Page_cache.dirty_bytes pc m));
  Engine.run e

let test_pc_throttle_and_wake () =
  let e, _, k = make_kernel () in
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(mib 1) () in
  let f = Page_cache.file pc m ~key:"a" ~flush:(fun ~bytes:_ -> ()) in
  let resumed_at = ref (-1.0) in
  Engine.spawn e (fun () ->
      Page_cache.write f ~off:0 ~len:(mib 2);
      Page_cache.throttle f;
      resumed_at := Engine.time ());
  Engine.spawn e (fun () ->
      Engine.sleep 3.0;
      let work = Page_cache.take_dirty pc m ~older_than:infinity ~max_bytes:max_int in
      let bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 work in
      Page_cache.writeback_complete pc m ~bytes);
  Engine.run e;
  check_floatish "throttled until writeback completed" 3.0 !resumed_at

let test_pc_eviction_clean_only () =
  let e, _, k = make_kernel ~page_cache_limit:(mib 1) () in
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(gib 1) () in
  let clean = Page_cache.file pc m ~key:"clean" ~flush:(fun ~bytes:_ -> ()) in
  let dirty = Page_cache.file pc m ~key:"dirty" ~flush:(fun ~bytes:_ -> ()) in
  Engine.spawn e (fun () ->
      Page_cache.insert_clean clean ~off:0 ~len:(mib 1);
      Page_cache.write dirty ~off:0 ~len:(mib 1);
      (* cache is 2 MiB used with a 1 MiB limit: the clean file must have
         been evicted, the dirty one must remain *)
      check_bool "clean data evicted" true
        (Page_cache.missing clean ~off:0 ~len:(mib 1) > 0);
      check_int "dirty data kept" 0 (Page_cache.missing dirty ~off:0 ~len:(mib 1)));
  Engine.run e

let test_pc_fsync_flushes_all () =
  let e, _, k = make_kernel () in
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(mib 64) () in
  let flushed = ref 0 in
  let f =
    Page_cache.file pc m ~key:"a" ~flush:(fun ~bytes -> flushed := !flushed + bytes)
  in
  let pool = pool_of () in
  Engine.spawn e (fun () ->
      Page_cache.write f ~off:0 ~len:(mib 3);
      Kernel.fsync_file k ~pool f;
      check_int "all flushed" (mib 3) !flushed;
      check_int "nothing dirty" 0 (Page_cache.dirty_bytes pc m));
  Engine.run e

(* ------------------------------------------------------------------ *)
(* Kernel accounting *)

let test_syscall_costs () =
  let e, cpu, k = make_kernel () in
  let pool = pool_of () in
  Engine.spawn e (fun () -> Kernel.syscall k ~pool (fun () -> ()));
  Engine.run e;
  check_floatish "2 mode switches of CPU"
    (2.0 *. (Kernel.costs k).Costs.mode_switch)
    (Cpu.busy_seconds_by cpu ~cores:(Cgroup.cores pool) ~tenant:"pool0");
  check_floatish "syscall counted" 1.0
    (Obs.get (Kernel.obs k) ~layer:"kernel" ~name:"syscalls" ~key:"pool0")

let test_context_switch_accounting () =
  let e, _, k = make_kernel () in
  let pool = pool_of () in
  Engine.spawn e (fun () -> Kernel.context_switches k ~pool 4);
  Engine.run e;
  check_floatish "counted" 4.0
    (Obs.get (Kernel.obs k) ~layer:"kernel" ~name:"context_switches" ~key:"pool0")

let test_blocking_io_iowait () =
  let e, _, k = make_kernel () in
  let pool = pool_of () in
  Engine.spawn e (fun () ->
      Kernel.blocking_io k ~pool (fun () -> Engine.sleep 2.0));
  Engine.run e;
  check_floatish "io wait recorded" 2.0
    (Obs.get (Kernel.obs k) ~layer:"kernel" ~name:"io_wait" ~key:"pool0")

let test_lock_interning_and_stats () =
  let e, _, k = make_kernel () in
  check_bool "same name same lock" true (Kernel.lock k "a" == Kernel.lock k "a");
  check_bool "different locks" true (Kernel.lock k "a" != Kernel.lock k "b");
  Engine.spawn e (fun () ->
      Mutex_sim.with_lock (Kernel.lock k "a") (fun () -> Engine.sleep 1.0));
  Engine.run e;
  let _, avg_hold, n = Kernel.lock_request_stats k in
  check_int "one request" 1 n;
  check_floatish "hold time" 1.0 avg_hold;
  Kernel.reset_lock_stats k;
  let _, _, n = Kernel.lock_request_stats k in
  check_int "stats reset" 0 n

(* ------------------------------------------------------------------ *)
(* Flusher: kernel writeback uses any activated core *)

let test_flusher_steals_foreign_cores () =
  let e, cpu, k = make_kernel ~cores:4 () in
  Kernel.start_flushers k;
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"cephfs" ~max_dirty:(mib 256) () in
  (* pool0 owns cores 0-1; cores 2-3 belong to somebody else *)
  let writer_pool = pool_of ~name:"pool0" ~cores:[| 0; 1 |] () in
  let f = Page_cache.file pc m ~key:"big" ~flush:(fun ~bytes:_ -> Engine.sleep 1e-6) in
  Engine.spawn e (fun () ->
      (* dirty a lot of data, then give the 1 s writeback scan time to
         kick in and flush it *)
      for i = 0 to 63 do
        Page_cache.write f ~off:(i * mib 4) ~len:(mib 4);
        Kernel.pool_cpu k ~pool:writer_pool 1e-6
      done;
      Engine.sleep 10.0);
  Engine.run_until e 12.0;
  let stolen = Cpu.busy_seconds_by cpu ~cores:[| 2; 3 |] ~tenant:"kernel" in
  check_bool "flusher burned CPU on foreign cores" true (stolen > 0.0);
  check_int "everything flushed" 0 (Page_cache.total_dirty pc)

let test_flusher_respects_expire_interval () =
  let e, _, k = make_kernel () in
  Kernel.start_flushers k;
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(gib 1) () in
  let f = Page_cache.file pc m ~key:"a" ~flush:(fun ~bytes:_ -> ()) in
  Engine.spawn e (fun () -> Page_cache.write f ~off:0 ~len:(mib 1));
  (* small dirty amount, under background threshold: flushed only after
     the 5 s expire interval *)
  Engine.run_until e 3.0;
  check_int "still dirty before expire" (mib 1) (Page_cache.total_dirty pc);
  Engine.run_until e 8.0;
  check_int "flushed after expire" 0 (Page_cache.total_dirty pc)

(* ------------------------------------------------------------------ *)
(* Local filesystem *)

let test_local_fs_read_caches () =
  let e, _, k = make_kernel () in
  let disk = Disk.create e ~name:"hdd" ~bandwidth:(float_of_int (mib 100)) ~latency:1e-3 ~seek:5e-3 in
  let fs = Local_fs.create k ~name:"ext4" ~disk ~max_dirty:(mib 64) () in
  let pool = pool_of () in
  Engine.spawn e (fun () ->
      Local_fs.read fs ~pool ~path:"/f" ~off:0 ~len:4096;
      let t1 = Engine.time () in
      Local_fs.read fs ~pool ~path:"/f" ~off:0 ~len:4096;
      let t2 = Engine.time () in
      check_bool "second read is a cache hit (much faster)" true
        (t2 -. t1 < (t1 /. 2.0)));
  Engine.run e;
  check_bool "disk saw the miss" true (Disk.bytes_transferred disk > 0.0)

let test_local_fs_write_dirties_and_flushes () =
  let e, _, k = make_kernel () in
  Kernel.start_flushers k;
  let disk = Disk.create e ~name:"hdd" ~bandwidth:(float_of_int (mib 200)) ~latency:0.0 ~seek:0.0 in
  let fs = Local_fs.create k ~name:"ext4" ~disk ~max_dirty:(mib 64) () in
  let pool = pool_of () in
  Engine.spawn e (fun () -> Local_fs.write fs ~pool ~path:"/f" ~off:0 ~len:(mib 1));
  Engine.run_until e 10.0;
  check_bool "writeback reached the disk" true
    (Disk.bytes_transferred disk >= float_of_int (mib 1))

let test_local_fs_fsync () =
  let e, _, k = make_kernel () in
  let disk = Disk.create e ~name:"hdd" ~bandwidth:(float_of_int (mib 200)) ~latency:0.0 ~seek:0.0 in
  let fs = Local_fs.create k ~name:"ext4" ~disk ~max_dirty:(mib 64) () in
  let pool = pool_of () in
  Engine.spawn e (fun () ->
      Local_fs.write fs ~pool ~path:"/f" ~off:0 ~len:(mib 1);
      Local_fs.fsync fs ~pool ~path:"/f");
  Engine.run e;
  check_bool "fsync wrote through" true
    (Disk.bytes_transferred disk >= float_of_int (mib 1))

(* ------------------------------------------------------------------ *)
(* FUSE *)

let test_fuse_roundtrip () =
  let e, _, k = make_kernel () in
  let service_pool = pool_of ~name:"svc" ~cores:[| 2; 3 |] () in
  let caller_pool = pool_of ~name:"app" ~cores:[| 0; 1 |] () in
  let fuse = Fuse.create k ~name:"ceph-fuse" ~pool:service_pool in
  Fuse.start fuse ~threads:2;
  let result = ref 0 in
  Engine.spawn e (fun () ->
      result := Fuse.call fuse ~caller:caller_pool ~bytes:4096 (fun () -> 41 + 1));
  Engine.run_until e 1.0;
  check_int "handler result returned" 42 !result;
  check_int "one request served" 1 (Fuse.requests fuse);
  check_floatish "caller context switches" 2.0
    (Obs.get (Kernel.obs k) ~layer:"kernel" ~name:"context_switches" ~key:"app");
  check_floatish "daemon context switches" 2.0
    (Obs.get (Kernel.obs k) ~layer:"kernel" ~name:"context_switches" ~key:"svc")

let test_fuse_parallel_requests () =
  let e, _, k = make_kernel () in
  let service_pool = pool_of ~name:"svc" ~cores:[| 2; 3 |] () in
  let caller_pool = pool_of ~name:"app" ~cores:[| 0; 1 |] () in
  let fuse = Fuse.create k ~name:"fuse" ~pool:service_pool in
  Fuse.start fuse ~threads:2;
  let finished = ref 0 in
  for _ = 1 to 2 do
    Engine.spawn e (fun () ->
        Fuse.call fuse ~caller:caller_pool ~bytes:0 (fun () -> Engine.sleep 1.0);
        incr finished)
  done;
  Engine.run_until e 1.5;
  check_int "two daemon threads served in parallel" 2 !finished

let suite =
  let tc = Alcotest.test_case in
  [
    ( "kernel.page_cache",
      [
        tc "miss then hit" `Quick test_pc_miss_then_hit;
        tc "dirty accounting" `Quick test_pc_dirty_accounting;
        tc "take_dirty oldest first" `Quick test_pc_take_dirty_oldest_first;
        tc "throttle and wake" `Quick test_pc_throttle_and_wake;
        tc "eviction spares dirty" `Quick test_pc_eviction_clean_only;
        tc "fsync flushes all" `Quick test_pc_fsync_flushes_all;
      ] );
    ( "kernel.accounting",
      [
        tc "syscall costs" `Quick test_syscall_costs;
        tc "context switches" `Quick test_context_switch_accounting;
        tc "blocking io wait" `Quick test_blocking_io_iowait;
        tc "lock interning and stats" `Quick test_lock_interning_and_stats;
      ] );
    ( "kernel.flusher",
      [
        tc "steals foreign cores" `Quick test_flusher_steals_foreign_cores;
        tc "respects expire interval" `Quick test_flusher_respects_expire_interval;
      ] );
    ( "kernel.local_fs",
      [
        tc "read caches" `Quick test_local_fs_read_caches;
        tc "write dirties and flushes" `Quick test_local_fs_write_dirties_and_flushes;
        tc "fsync" `Quick test_local_fs_fsync;
      ] );
    ( "kernel.fuse",
      [
        tc "roundtrip" `Quick test_fuse_roundtrip;
        tc "parallel requests" `Quick test_fuse_parallel_requests;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Readahead efficiency on the local filesystem *)

let test_local_fs_sequential_readahead () =
  let e, _, k = make_kernel () in
  let disk = Disk.create e ~name:"hdd" ~bandwidth:(float_of_int (mib 100)) ~latency:1e-3 ~seek:5e-3 in
  let fs = Local_fs.create k ~name:"ext4" ~disk ~max_dirty:(mib 64) ~readahead:(mib 1) () in
  let pool = pool_of () in
  let seq_time = ref 0.0 in
  Engine.spawn e (fun () ->
      (* 16 sequential 64 KiB reads: the first miss prefetches 1 MiB, the
         rest are hits *)
      let t0 = Engine.time () in
      for i = 0 to 15 do
        Local_fs.read fs ~pool ~path:"/seq" ~off:(i * 65536) ~len:65536
      done;
      seq_time := Engine.time () -. t0);
  Engine.run e;
  (* one disk op for the whole megabyte, not sixteen *)
  check_bool "readahead coalesced the disk accesses" true
    (Disk.busy_seconds disk < 0.05)

let readahead_suite =
  let tc = Alcotest.test_case in
  [ ("kernel.readahead", [ tc "sequential readahead" `Quick test_local_fs_sequential_readahead ]) ]

let suite = suite @ readahead_suite

let test_top_locks_by_wait () =
  let e, _, k = make_kernel () in
  Engine.spawn e (fun () ->
      Mutex_sim.with_lock (Kernel.lock k "hot") (fun () -> Engine.sleep 1.0));
  Engine.spawn e (fun () ->
      Mutex_sim.with_lock (Kernel.lock k "hot") (fun () -> ()));
  Engine.spawn e (fun () -> Mutex_sim.with_lock (Kernel.lock k "cold") (fun () -> ()));
  Engine.run e;
  match Kernel.top_locks_by_wait k ~n:1 with
  | [ (name, wait, _, acq) ] ->
      Alcotest.(check string) "hottest lock" "hot" name;
      check_floatish "waited behind the holder" 1.0 wait;
      check_int "acquisitions" 2 acq
  | _ -> Alcotest.fail "expected one entry"

let debug_suite =
  [ ("kernel.debug", [ Alcotest.test_case "top locks by wait" `Quick test_top_locks_by_wait ]) ]

let suite = suite @ debug_suite

(* ------------------------------------------------------------------ *)
(* Lock classes and the page-cache side of inode eviction *)

let test_retired_lock_stats () =
  let e, _, k = make_kernel () in
  let cls = Kernel.lock_class k "i_mutex:fs" in
  let m = Kernel.class_lock cls 42 in
  check_bool "an instance per object id" true (m == Kernel.class_lock cls 42);
  check_bool "distinct objects, distinct locks" true (m != Kernel.class_lock cls 43);
  Engine.spawn e (fun () -> Mutex_sim.with_lock m (fun () -> Engine.sleep 1.0));
  Engine.spawn e (fun () -> Mutex_sim.with_lock m (fun () -> ()));
  Engine.run e;
  (* the inode behind lock 42 is evicted; 43 stays live *)
  Kernel.retire_lock cls 42;
  check_int "one live instance left" 1 (Kernel.live_locks cls);
  Engine.spawn e (fun () ->
      Mutex_sim.with_lock (Kernel.class_lock cls 43) (fun () -> Engine.sleep 1.0));
  Engine.run e;
  let avg_wait, avg_hold, n = Kernel.lock_request_stats k in
  check_int "retired and live acquisitions counted" 3 n;
  check_floatish "retired wait counted" (1.0 /. 3.0) avg_wait;
  check_floatish "retired and live holds counted" (2.0 /. 3.0) avg_hold;
  (match Kernel.top_locks_by_wait k ~n:1 with
  | [ (name, wait, _, acq) ] ->
      Alcotest.(check string) "a class reports as one lock" "i_mutex:fs" name;
      check_floatish "class wait" 1.0 wait;
      check_int "class acquisitions" 3 acq
  | _ -> Alcotest.fail "expected one entry");
  Kernel.reset_lock_stats k;
  let _, _, n = Kernel.lock_request_stats k in
  check_int "reset clears the retired totals too" 0 n

let test_pc_forget () =
  let e, _, k = make_kernel () in
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(gib 1) ~mem_limit:(mib 2) () in
  let file key = Page_cache.file pc m ~key ~flush:(fun ~bytes:_ -> ()) in
  let empty = file "empty" in
  Page_cache.forget empty;
  check_bool "an empty file is dropped at once" true (file "empty" != empty);
  let cached = file "cached" in
  Engine.spawn e (fun () ->
      Page_cache.write cached ~off:0 ~len:(mib 1);
      Page_cache.forget cached;
      check_int "its blocks keep their accounting" (mib 1) (Page_cache.mount_used m);
      let work = Page_cache.take_dirty pc m ~older_than:infinity ~max_bytes:max_int in
      let bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 work in
      check_int "its dirty data is still written back" (mib 1) bytes;
      Page_cache.writeback_complete pc m ~bytes;
      (* a newer file pushes the mount past its limit: the forgotten
         file's clean blocks are the LRU victims, and the file goes with
         its last block *)
      Engine.sleep 1.0;
      Page_cache.insert_clean (file "newer") ~off:0 ~len:(mib 2);
      check_bool "dropped once eviction emptied it" true (file "cached" != cached));
  Engine.run e

(* The dirty ring starts empty and grows geometrically; a budget that
   cuts through a same-instant group takes the compaction path.  The
   ring/table laws are checked strictly at every step. *)
let test_pc_ring_grows_through_split_group () =
  let module Check = Danaus_check.Check in
  let saved = Check.mode () in
  Check.set_mode Check.Strict;
  Fun.protect ~finally:(fun () -> Check.set_mode saved) @@ fun () ->
  let e, _, k = make_kernel () in
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(gib 1) () in
  let f = Page_cache.file pc m ~key:"ring" ~flush:(fun ~bytes:_ -> ()) in
  let blk = 64 * 1024 in
  let take max_bytes =
    Page_cache.take_dirty pc m ~older_than:infinity ~max_bytes
    |> List.fold_left (fun acc (_, b) -> acc + b) 0
  in
  Engine.spawn e (fun () ->
      (* one call dirties 20 blocks at one instant: the empty ring grows
         twice inside the group *)
      Page_cache.write f ~off:0 ~len:(20 * blk);
      Engine.sleep 1.0;
      Page_cache.write f ~off:(20 * blk) ~len:(5 * blk);
      Page_cache.check_invariants pc;
      check_int "budget cuts the first group" (7 * blk) (take (7 * blk));
      Page_cache.check_invariants pc;
      check_int "rest of both groups dirty" (18 * blk) (Page_cache.dirty_bytes_of f);
      check_int "first group finished first" (13 * blk) (take (13 * blk));
      Alcotest.(check (option (float 0.0)))
        "oldest dirty block is the second group's" (Some 1.0)
        (Page_cache.oldest_dirty pc m);
      (* grow again with the ring's head away from slot 0 *)
      Engine.sleep 1.0;
      Page_cache.write f ~off:(25 * blk) ~len:(40 * blk);
      Page_cache.check_invariants pc;
      check_int "second group drains next" (5 * blk) (take (5 * blk));
      (* re-dirtying the second group's blocks shows they were the ones
         taken: only clean blocks are dirtied anew *)
      Page_cache.write f ~off:(20 * blk) ~len:(5 * blk);
      check_int "taken blocks were the second group's" (45 * blk)
        (Page_cache.dirty_bytes_of f);
      Page_cache.check_invariants pc;
      check_int "the rest" (45 * blk) (take max_int);
      check_int "ring drained" 0 (Page_cache.dirty_bytes_of f);
      Page_cache.writeback_complete pc m ~bytes:(70 * blk);
      Page_cache.check_invariants pc);
  Engine.run e

(* Eviction passes are skipped while the cache holds no clean block (a
   pass could then evict nothing); the skip must not change what a pass
   does.  A mount over its limit with only dirty data evicts nothing;
   once writeback turns blocks clean they are evicted LRU-first; and a
   forgotten file that was invalidated (no block, not yet dropped) is
   still dropped by the next pass even though no block is clean. *)
let test_pc_eviction_tracks_clean_blocks () =
  let module Check = Danaus_check.Check in
  let saved = Check.mode () in
  Check.set_mode Check.Strict;
  Fun.protect ~finally:(fun () -> Check.set_mode saved) @@ fun () ->
  let e, _, k = make_kernel () in
  let pc = Kernel.page_cache k in
  let m = Page_cache.add_mount pc ~name:"fs" ~max_dirty:(gib 1) ~mem_limit:(mib 2) () in
  let file key = Page_cache.file pc m ~key ~flush:(fun ~bytes:_ -> ()) in
  let old = file "old" in
  Engine.spawn e (fun () ->
      Page_cache.write old ~off:0 ~len:(mib 3);
      check_int "all-dirty mount over its limit keeps every block" (mib 3)
        (Page_cache.mount_used m);
      Page_cache.check_invariants pc;
      let work = Page_cache.take_dirty pc m ~older_than:infinity ~max_bytes:(mib 2) in
      let bytes = List.fold_left (fun acc (_, b) -> acc + b) 0 work in
      Page_cache.writeback_complete pc m ~bytes;
      Page_cache.check_invariants pc;
      Engine.sleep 1.0;
      let stray = file "stray" in
      Page_cache.insert_clean stray ~off:0 ~len:(64 * 1024);
      (* down to 90% of the 2 MiB limit, the old file's clean blocks
         first: the stray file was touched last and keeps its block *)
      check_int "evicted to the block at or under the hysteresis target"
        (mib 2 / 10 * 9 / (64 * 1024) * (64 * 1024))
        (Page_cache.mount_used m);
      check_int "newest file untouched" 0
        (Page_cache.missing stray ~off:0 ~len:(64 * 1024));
      Page_cache.forget stray;
      Page_cache.invalidate stray;
      Page_cache.check_invariants pc;
      (* old's remaining clean blocks are dirtied again: nothing is
         clean, yet the pass this write triggers drops the stray file *)
      Page_cache.write old ~off:0 ~len:(mib 3);
      Page_cache.check_invariants pc;
      check_bool "invalidated forgotten file dropped" true (file "stray" != stray));
  Engine.run e

let lifecycle_suite =
  let tc = Alcotest.test_case in
  [
    ( "kernel.lifecycle",
      [
        tc "retired lock stats" `Quick test_retired_lock_stats;
        tc "page cache forget" `Quick test_pc_forget;
        tc "dirty ring grows from empty" `Quick test_pc_ring_grows_through_split_group;
        tc "eviction tracks clean blocks" `Quick test_pc_eviction_tracks_clean_blocks;
      ] );
  ]

let suite = suite @ lifecycle_suite
