(* Tests for the three backend clients: library (libcephfs-style),
   kernel (CephFS-style) and FUSE (ceph-fuse-style). *)

open Danaus_sim
open Danaus_hw
open Danaus_kernel
open Danaus_ceph
open Danaus_client

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mib n = n * 1024 * 1024
let gib n = n * 1024 * 1024 * 1024

open Testbed


(* ------------------------------------------------------------------ *)
(* Lib_client *)

let test_lib_write_read_roundtrip () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "lib0" in
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 1));
      check_int "size tracked" (mib 1) (ok_or_fail "size" (i.fd_size fd));
      let n = ok_or_fail "read" (i.read ~pool fd ~off:0 ~len:(mib 1)) in
      check_int "full read" (mib 1) n;
      let n = ok_or_fail "read eof" (i.read ~pool fd ~off:(mib 1) ~len:4096) in
      check_int "eof short read" 0 n;
      i.close ~pool fd);
  Engine.run_until w.engine 30.0;
  check_bool "no deadlock" true (Engine.live_processes w.engine <= 1)

let test_lib_background_flush_reaches_osds () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "lib0" in
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 2));
      i.close ~pool fd);
  Engine.run_until w.engine 30.0;
  check_bool "dirty data flushed over network" true
    (total_osd_written w.cluster >= float_of_int (mib 2));
  check_int "nothing left dirty" 0 (Lib_client.dirty_bytes c)

let test_lib_dirty_throttling () =
  let w = make_world () in
  let pool = pool_of () in
  (* tiny cache: 8 MiB, so max dirty is 4 MiB *)
  let c = make_lib_client ~cache:(mib 8) w pool "lib0" in
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      for blk = 0 to 15 do
        ok_or_fail "write" (i.write ~pool fd ~off:(blk * mib 1) ~len:(mib 1))
      done;
      check_bool "writer forced writeback under the limit" true
        (Lib_client.dirty_bytes c <= mib 4));
  Engine.run_until w.engine 30.0;
  check_bool "data went to the OSDs" true (total_osd_written w.cluster > 0.0)

let test_lib_cached_read_fast () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "lib0" in
  let i = Lib_client.iface c in
  let cold = ref 0.0 and warm = ref 0.0 in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 8));
      ok_or_fail "fsync" (i.fsync ~pool fd);
      i.close ~pool fd;
      (* new client with a cold cache *)
      let c2 = make_lib_client w pool "lib1" in
      let i2 = Lib_client.iface c2 in
      let fd = ok_or_fail "open2" (i2.open_file ~pool "/f" Client_intf.flags_ro) in
      let t0 = Engine.time () in
      ignore (ok_or_fail "cold" (i2.read ~pool fd ~off:0 ~len:(mib 4)));
      let t1 = Engine.time () in
      ignore (ok_or_fail "warm" (i2.read ~pool fd ~off:0 ~len:(mib 4)));
      let t2 = Engine.time () in
      cold := t1 -. t0;
      warm := t2 -. t1);
  Engine.run_until w.engine 60.0;
  check_bool "warm read at least 5x faster" true (!warm *. 5.0 < !cold)

let test_lib_client_lock_serialises_cached_reads () =
  (* Two threads on 2 cores reading fully cached data: the global
     client_lock forces them to copy one at a time (paper §6.3.2). *)
  let w = make_world () in
  let pool = pool_of ~cores:[| 0; 1 |] () in
  let c = make_lib_client w pool "lib0" in
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 16));
      (* warm the cache *)
      ignore (ok_or_fail "warm" (i.read ~pool fd ~off:0 ~len:(mib 16)));
      let wg = Waitgroup.create w.engine in
      for _ = 1 to 2 do
        Waitgroup.add wg;
        Engine.fork (fun () ->
            for _ = 1 to 50 do
              ignore (ok_or_fail "read" (i.read ~pool fd ~off:0 ~len:(mib 1)))
            done;
            Waitgroup.finish wg)
      done;
      Waitgroup.wait wg);
  Engine.run_until w.engine 120.0;
  let lock = Lib_client.client_lock c in
  check_bool "client_lock was contended" true (Mutex_sim.contended lock > 0)

let test_lib_negative_lookup_cached () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "lib0" in
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      (match i.stat ~pool "/missing" with
      | Error (Client_intf.Fs Namespace.No_entry) -> ()
      | _ -> Alcotest.fail "expected ENOENT");
      let mds_ops_after_first = Mds.ops (Cluster.mds w.cluster) in
      (match i.stat ~pool "/missing" with
      | Error (Client_intf.Fs Namespace.No_entry) -> ()
      | _ -> Alcotest.fail "expected ENOENT");
      check_int "second miss served from negative cache" mds_ops_after_first
        (Mds.ops (Cluster.mds w.cluster)));
  Engine.run_until w.engine 10.0

let test_lib_unlink_removes_objects () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "lib0" in
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 8));
      ok_or_fail "fsync" (i.fsync ~pool fd);
      i.close ~pool fd;
      ok_or_fail "unlink" (i.unlink ~pool "/f");
      let stored =
        Array.fold_left (fun acc o -> acc + Osd.objects_stored o) 0
          (Cluster.osds w.cluster)
      in
      check_int "objects deleted" 0 stored;
      match i.stat ~pool "/f" with
      | Error (Client_intf.Fs Namespace.No_entry) -> ()
      | _ -> Alcotest.fail "file should be gone");
  Engine.run_until w.engine 60.0

let test_lib_memory_accounting () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client ~cache:(mib 16) w pool "lib0" in
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 32));
      check_bool "cache below its capacity" true (Lib_client.cache_used c <= mib 17);
      check_bool "cache is in use" true (Lib_client.cache_used c > 0));
  Engine.run_until w.engine 60.0

(* ------------------------------------------------------------------ *)
(* Kernel_client *)

let make_kernel_client w name =
  Kernel_client.create w.kernel ~cluster:w.cluster ~name ~max_dirty:(gib 4) ()

let test_kernel_roundtrip () =
  let w = make_world () in
  Kernel.start_flushers w.kernel;
  let pool = pool_of () in
  let kc = make_kernel_client w "cephfs0" in
  let i = Kernel_client.iface kc in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/k" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 2));
      let n = ok_or_fail "read" (i.read ~pool fd ~off:0 ~len:(mib 2)) in
      check_int "read back" (mib 2) n;
      i.close ~pool fd);
  Engine.run_until w.engine 60.0;
  check_bool "page cache used (host memory)" true
    (Page_cache.used_bytes (Kernel.page_cache w.kernel) > 0)

let test_kernel_writeback_by_flusher () =
  let w = make_world () in
  Kernel.start_flushers w.kernel;
  let pool = pool_of () in
  let kc = make_kernel_client w "cephfs0" in
  let i = Kernel_client.iface kc in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/k" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 4));
      i.close ~pool fd);
  Engine.run_until w.engine 30.0;
  check_bool "flusher pushed data to OSDs" true
    (total_osd_written w.cluster >= float_of_int (mib 4));
  (* flusher CPU is attributed to the kernel, not the pool *)
  let kernel_cpu =
    Cpu.busy_seconds_by w.cpu ~cores:(Kernel.activated w.kernel) ~tenant:"kernel"
  in
  check_bool "writeback CPU on kernel threads" true (kernel_cpu > 0.0)

let test_kernel_shared_lock_cross_pool () =
  (* two pools, each with its own kernel client (scaleout): the
     superblock-class lock is still shared host-wide *)
  let w = make_world () in
  Kernel.start_flushers w.kernel;
  let pool0 = pool_of ~name:"pool0" ~cores:[| 0; 1 |] () in
  let pool1 = pool_of ~name:"pool1" ~cores:[| 2; 3 |] () in
  let k0 = make_kernel_client w "cephfs0" in
  let k1 = make_kernel_client w "cephfs1" in
  let i0 = Kernel_client.iface k0 and i1 = Kernel_client.iface k1 in
  let run iface pool path =
    let fd = ok_or_fail "open" (iface.Client_intf.open_file ~pool path Client_intf.flags_wo) in
    for b = 0 to 31 do
      ok_or_fail "write" (iface.Client_intf.write ~pool fd ~off:(b * 65536) ~len:65536)
    done
  in
  Engine.spawn w.engine (fun () -> run i0 pool0 "/a");
  Engine.spawn w.engine (fun () -> run i1 pool1 "/b");
  Engine.run_until w.engine 60.0;
  let sb = Kernel.lock w.kernel "cephfs:i_mutex_key" in
  check_bool "superblock lock shared across pools" true
    (Mutex_sim.acquisitions sb > 60)

(* ------------------------------------------------------------------ *)
(* Fuse_client *)

let make_fuse_client w pool name ~page_cache =
  Fuse_client.create w.kernel ~cluster:w.cluster ~pool
    ~config:(Lib_client.default_config ~cache_bytes:(mib 256)) ~name ~page_cache ()

let test_fuse_roundtrip_counts_requests () =
  let w = make_world () in
  let pool = pool_of () in
  let fc = make_fuse_client w pool "fuse0" ~page_cache:false in
  let i = Fuse_client.iface fc in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 1));
      ignore (ok_or_fail "read" (i.read ~pool fd ~off:0 ~len:(mib 1)));
      i.close ~pool fd);
  Engine.run_until w.engine 60.0;
  let fuse_reqs =
    Obs.get (Kernel.obs w.kernel) ~layer:"kernel" ~name:"fuse_requests" ~key:"pool0"
  in
  check_bool "every op crossed FUSE" true (fuse_reqs >= 4.0)

let test_fuse_page_cache_avoids_crossings () =
  let w = make_world () in
  let pool = pool_of () in
  let fc = make_fuse_client w pool "fusep" ~page_cache:true in
  let i = Fuse_client.iface fc in
  let reqs_between = ref 0.0 in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 1));
      ignore (ok_or_fail "read1" (i.read ~pool fd ~off:0 ~len:(mib 1)));
      let before =
        Obs.get (Kernel.obs w.kernel) ~layer:"kernel" ~name:"fuse_requests" ~key:"pool0"
      in
      ignore (ok_or_fail "read2" (i.read ~pool fd ~off:0 ~len:(mib 1)));
      let after =
        Obs.get (Kernel.obs w.kernel) ~layer:"kernel" ~name:"fuse_requests" ~key:"pool0"
      in
      reqs_between := after -. before);
  Engine.run_until w.engine 60.0;
  Alcotest.(check (float 0.0)) "page-cache hit crossed no FUSE" 0.0 !reqs_between

let test_fuse_double_caching_memory () =
  let w = make_world () in
  let pool = pool_of () in
  let fc = make_fuse_client w pool "fusep" ~page_cache:true in
  let i = Fuse_client.iface fc in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 4)));
  Engine.run_until w.engine 60.0;
  let user_side = Lib_client.cache_used (Fuse_client.inner fc) in
  let kernel_side = Page_cache.used_bytes (Kernel.page_cache w.kernel) in
  check_bool "user cache holds the data" true (user_side >= mib 4);
  check_bool "page cache holds it again" true (kernel_side >= mib 4)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_lib_read_never_past_eof =
  QCheck.Test.make ~name:"reads never return past EOF" ~count:40
    QCheck.(pair (int_range 0 2_000_000) (int_range 1 2_000_000))
    (fun (size, req) ->
      let w = make_world () in
      let pool = pool_of () in
      let c = make_lib_client w pool "lib0" in
      let i = Lib_client.iface c in
      let result = ref 0 in
      Engine.spawn w.engine (fun () ->
          let fd =
            ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo)
          in
          if size > 0 then ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:size);
          result := ok_or_fail "read" (i.read ~pool fd ~off:0 ~len:req));
      Engine.run_until w.engine 120.0;
      !result = Stdlib.min size req)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "client.lib",
      [
        tc "write/read roundtrip" `Quick test_lib_write_read_roundtrip;
        tc "background flush to OSDs" `Quick test_lib_background_flush_reaches_osds;
        tc "dirty throttling" `Quick test_lib_dirty_throttling;
        tc "cached read fast" `Quick test_lib_cached_read_fast;
        tc "client_lock contention" `Quick test_lib_client_lock_serialises_cached_reads;
        tc "negative lookup cached" `Quick test_lib_negative_lookup_cached;
        tc "unlink removes objects" `Quick test_lib_unlink_removes_objects;
        tc "memory accounting" `Quick test_lib_memory_accounting;
      ] );
    ( "client.kernel",
      [
        tc "roundtrip via page cache" `Quick test_kernel_roundtrip;
        tc "writeback by kernel flusher" `Quick test_kernel_writeback_by_flusher;
        tc "shared lock across pools" `Quick test_kernel_shared_lock_cross_pool;
      ] );
    ( "client.fuse",
      [
        tc "ops cross FUSE" `Quick test_fuse_roundtrip_counts_requests;
        tc "FP page cache hit" `Quick test_fuse_page_cache_avoids_crossings;
        tc "FP double caching" `Quick test_fuse_double_caching_memory;
      ] );
    ( "client.properties",
      List.map QCheck_alcotest.to_alcotest [ prop_lib_read_never_past_eof ] );
  ]

(* ------------------------------------------------------------------ *)
(* Wrappers: Rebase, Pagecache_wrap, fine-grained locking *)

let test_rebase_paths () =
  Alcotest.(check string) "rebase" "/roots/a/etc/x" (Rebase.rebase ~prefix:"/roots/a" "/etc/x");
  Alcotest.(check string) "rebase root prefix" "/etc/x" (Rebase.rebase ~prefix:"/" "/etc/x");
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "base" in
  let wrapped = Rebase.wrap ~prefix:"/sub" (Lib_client.iface c) in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (wrapped.Client_intf.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (wrapped.Client_intf.write ~pool fd ~off:0 ~len:4096);
      wrapped.Client_intf.close ~pool fd;
      (* visible at the rebased location through the raw client *)
      check_bool "stored under the prefix" true
        (Result.is_ok ((Lib_client.iface c).Client_intf.stat ~pool "/sub/f")));
  Engine.run_until w.engine 30.0

let test_pagecache_wrap_hit_skips_inner () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "inner" in
  let wrapped =
    Pagecache_wrap.wrap w.kernel ~name:"pcw" ~max_dirty:(mib 64) (Lib_client.iface c)
  in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (wrapped.Client_intf.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (wrapped.Client_intf.write ~pool fd ~off:0 ~len:(mib 1));
      (* the write-through left a clean page-cache copy: a read must not
         touch the inner client's cache lock *)
      let inner_lock = Lib_client.client_lock c in
      let acq_before = Mutex_sim.acquisitions inner_lock in
      check_int "read served" (mib 1)
        (ok_or_fail "read" (wrapped.Client_intf.read ~pool fd ~off:0 ~len:(mib 1)));
      check_int "inner client untouched on hit" acq_before
        (Mutex_sim.acquisitions inner_lock));
  Engine.run_until w.engine 60.0

let test_fine_grained_locking_roundtrip () =
  let w = make_world () in
  let pool = pool_of () in
  let c =
    Lib_client.create w.engine ~cpu:w.cpu ~costs:(Danaus_kernel.Kernel.costs w.kernel)
      ~cluster:w.cluster ~pool
      ~config:
        {
          (Lib_client.default_config ~cache_bytes:(mib 256)) with
          Lib_client.fine_grained_locking = true;
        }
      ~name:"fg"
  in
  Lib_client.start c;
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/f" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 4));
      check_int "read back" (mib 4) (ok_or_fail "read" (i.read ~pool fd ~off:0 ~len:(mib 4)));
      (* the global client_lock is never taken for cached reads *)
      let before = Mutex_sim.acquisitions (Lib_client.client_lock c) in
      ignore (ok_or_fail "read2" (i.read ~pool fd ~off:0 ~len:(mib 1)));
      check_int "global lock bypassed" before
        (Mutex_sim.acquisitions (Lib_client.client_lock c)));
  Engine.run_until w.engine 60.0

let test_mount_mem_limit_evicts () =
  let w = make_world () in
  let pc = Danaus_kernel.Kernel.page_cache w.kernel in
  let m =
    Danaus_kernel.Page_cache.add_mount pc ~name:"limited" ~max_dirty:(gib 1)
      ~mem_limit:(mib 1) ()
  in
  let f = Danaus_kernel.Page_cache.file pc m ~key:"big" ~flush:(fun ~bytes:_ -> ()) in
  Engine.spawn w.engine (fun () ->
      Danaus_kernel.Page_cache.insert_clean f ~off:0 ~len:(mib 4);
      check_bool "mount bounded by its cgroup limit" true
        (Danaus_kernel.Page_cache.mount_used m <= mib 1));
  Engine.run_until w.engine 10.0

let test_attr_lease_cross_client_visibility () =
  (* client B cached a negative lookup; after A creates the file and the
     lease expires, B sees it (§3.4 consistency) *)
  let w = make_world () in
  let pool = pool_of () in
  let a = make_lib_client w pool "cliA" in
  let b = make_lib_client w pool "cliB" in
  let ia = Lib_client.iface a and ib = Lib_client.iface b in
  Engine.spawn w.engine (fun () ->
      (match ib.Client_intf.stat ~pool "/shared" with
      | Error (Client_intf.Fs Danaus_ceph.Namespace.No_entry) -> ()
      | _ -> Alcotest.fail "expected ENOENT");
      let fd = ok_or_fail "create" (ia.Client_intf.open_file ~pool "/shared" Client_intf.flags_wo) in
      ok_or_fail "write" (ia.Client_intf.write ~pool fd ~off:0 ~len:4096);
      ia.Client_intf.close ~pool fd;
      (* within the lease, B still believes the file is absent *)
      (match ib.Client_intf.stat ~pool "/shared" with
      | Error (Client_intf.Fs Danaus_ceph.Namespace.No_entry) -> ()
      | _ -> Alcotest.fail "lease should still hide the file");
      Engine.sleep 1.5;
      match ib.Client_intf.stat ~pool "/shared" with
      | Ok attr -> check_int "size visible after lease" 4096 attr.Danaus_ceph.Namespace.size
      | Error e -> Alcotest.failf "still hidden: %s" (Client_intf.error_to_string e));
  Engine.run_until w.engine 60.0

let test_attr_lease_does_not_shrink_local_size () =
  (* a lease refetch must not clobber the client's own unflushed size *)
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "cliC" in
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "create" (i.open_file ~pool "/grow" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 2));
      Engine.sleep 2.0;
      (* stat revalidates at the MDS (which may still say size 0) *)
      ignore (i.stat ~pool "/grow");
      check_int "local size preserved" (mib 2) (ok_or_fail "size" (i.fd_size fd)));
  Engine.run_until w.engine 60.0

let wrapper_suite =
  let tc = Alcotest.test_case in
  [
    ( "client.wrappers",
      [
        tc "rebase paths" `Quick test_rebase_paths;
        tc "pagecache_wrap hit" `Quick test_pagecache_wrap_hit_skips_inner;
        tc "fine-grained locking" `Quick test_fine_grained_locking_roundtrip;
        tc "mount mem limit" `Quick test_mount_mem_limit_evicts;
        tc "attr lease cross-client" `Quick test_attr_lease_cross_client_visibility;
        tc "attr lease keeps local size" `Quick test_attr_lease_does_not_shrink_local_size;
      ] );
  ]

let suite = suite @ wrapper_suite

let test_write_through_mode () =
  let w = make_world () in
  let pool = pool_of () in
  let c =
    Lib_client.create w.engine ~cpu:w.cpu ~costs:(Danaus_kernel.Kernel.costs w.kernel)
      ~cluster:w.cluster ~pool
      ~config:
        {
          (Lib_client.default_config ~cache_bytes:(mib 64)) with
          Lib_client.write_through = true;
        }
      ~name:"wt"
  in
  Lib_client.start c;
  let i = Lib_client.iface c in
  Engine.spawn w.engine (fun () ->
      let fd = ok_or_fail "open" (i.open_file ~pool "/wt" Client_intf.flags_wo) in
      ok_or_fail "write" (i.write ~pool fd ~off:0 ~len:(mib 2));
      (* the data is on the OSDs before write returns *)
      check_bool "write-through reached the backend" true
        (total_osd_written w.cluster >= float_of_int (mib 2));
      check_int "nothing left dirty" 0 (Lib_client.dirty_bytes c));
  Engine.run_until w.engine 60.0

let wt_suite =
  [ ("client.write_through", [ Alcotest.test_case "synchronous writes" `Quick test_write_through_mode ]) ]

let suite = suite @ wt_suite

(* ------------------------------------------------------------------ *)
(* Inode lifecycle: an unlinked inode lives on while a descriptor holds
   it open, and the client evicts its state at the last close *)

(* Open [path] twice, unlink it, then write 1 MiB blocks 0-3 through both
   descriptors from two pools at once and fsync: the writes must land,
   and the inode must be evicted only by the second close.  [lock_check]
   inspects the inode lock after the writes. *)
let unlinked_open_file_lifecycle w iface ~inode_count ~lock_check =
  let pool0 = pool_of ~name:"pool0" ~cores:[| 0; 1 |] () in
  let pool1 = pool_of ~name:"pool1" ~cores:[| 2; 3 |] () in
  let finished = ref false in
  Engine.spawn w.engine (fun () ->
      let path = "/life/f" in
      let fd0 = ok_or_fail "open" (iface.Client_intf.open_file ~pool:pool0 path Client_intf.flags_wo) in
      let fd1 =
        ok_or_fail "reopen" (iface.Client_intf.open_file ~pool:pool1 path Client_intf.flags_append)
      in
      let ino = (ok_or_fail "stat" (iface.Client_intf.stat ~pool:pool0 path)).Namespace.ino in
      check_int "one inode held" 1 (inode_count ());
      ok_or_fail "unlink" (iface.Client_intf.unlink ~pool:pool0 path);
      check_int "unlinked but open: still held" 1 (inode_count ());
      let written0 = total_osd_written w.cluster in
      let wg = Waitgroup.create w.engine in
      List.iter
        (fun (pool, fd) ->
          Waitgroup.add wg;
          Engine.fork (fun () ->
              for b = 0 to 3 do
                ok_or_fail "write after unlink"
                  (iface.Client_intf.write ~pool fd ~off:(b * mib 1) ~len:(mib 1))
              done;
              Waitgroup.finish wg))
        [ (pool0, fd0); (pool1, fd1) ];
      Waitgroup.wait wg;
      lock_check ino;
      ok_or_fail "fsync after unlink" (iface.Client_intf.fsync ~pool:pool0 fd0);
      check_bool "the flush landed" true
        (total_osd_written w.cluster -. written0 >= float_of_int (mib 4));
      iface.Client_intf.close ~pool:pool0 fd0;
      check_int "one descriptor left: still held" 1 (inode_count ());
      iface.Client_intf.close ~pool:pool1 fd1;
      check_int "evicted at the last close" 0 (inode_count ());
      finished := true);
  Engine.run_until w.engine 60.0;
  check_bool "scenario ran to the end" true !finished

let test_kernel_unlinked_open_file () =
  let w = make_world () in
  Kernel.start_flushers w.kernel;
  let kc = make_kernel_client w "cephfs0" in
  let i_mutexes = Kernel.lock_class w.kernel "i_mutex:cephfs0" in
  unlinked_open_file_lifecycle w (Kernel_client.iface kc)
    ~inode_count:(fun () -> Kernel_client.inode_count kc)
    ~lock_check:(fun ino ->
      (* the live instance is the one both writers went through *)
      let m = Kernel.class_lock i_mutexes ino in
      check_int "every write took the inode's i_mutex" 8 (Mutex_sim.acquisitions m);
      check_bool "the writers serialised on it" true (Mutex_sim.contended m > 0));
  check_int "the evicted inode's i_mutex is retired" 0 (Kernel.live_locks i_mutexes);
  let _, _, n = Kernel.lock_request_stats w.kernel in
  check_bool "its acquisitions still counted" true (n >= 8);
  (* one Obs distribution per lock class, none per inode *)
  let keys = List.map fst (Obs.by_key (Kernel.obs w.kernel) ~layer:"sim" ~name:"lock_hold") in
  check_bool "class key recorded" true (List.mem "i_mutex:cephfs0" keys);
  check_bool "no per-inode keys" false
    (List.exists (fun k -> String.starts_with ~prefix:"i_mutex:cephfs0:" k) keys)

let test_lib_unlinked_open_file () =
  let w = make_world () in
  let pool = pool_of () in
  let c =
    Lib_client.create w.engine ~cpu:w.cpu ~costs:(Kernel.costs w.kernel)
      ~cluster:w.cluster ~pool
      ~config:
        {
          (Lib_client.default_config ~cache_bytes:(mib 64)) with
          Lib_client.fine_grained_locking = true;
        }
      ~name:"lib0"
  in
  Lib_client.start c;
  let obs = Engine.obs w.engine in
  unlinked_open_file_lifecycle w (Lib_client.iface c)
    ~inode_count:(fun () -> Lib_client.inode_count c)
    ~lock_check:(fun _ ->
      (* only one file is written, so the per-inode lock is its lock *)
      let count name =
        match Obs.hist_summary obs ~layer:"sim" ~name ~key:"lib0.ino_lock" with
        | Some h -> h.Obs.h_count
        | None -> 0
      in
      check_int "every write took the inode lock" 8 (count "lock_hold");
      check_bool "the writers serialised on it" true (count "lock_wait" > 0))

(* [n] create/write/close/unlink cycles, every tenth file kept, while one
   unlinked file stays open: the client holds exactly the linked-or-open
   inodes. *)
let churn_holds_linked_or_open w iface ~pool ~inode_count =
  let finished = ref false in
  Engine.spawn w.engine (fun () ->
      let held =
        ok_or_fail "open" (iface.Client_intf.open_file ~pool "/churn/held" Client_intf.flags_wo)
      in
      ok_or_fail "write" (iface.Client_intf.write ~pool held ~off:0 ~len:65536);
      ok_or_fail "unlink held" (iface.Client_intf.unlink ~pool "/churn/held");
      let n = 50 in
      for k = 0 to n - 1 do
        let path = Printf.sprintf "/churn/f%d" k in
        let fd = ok_or_fail "create" (iface.Client_intf.open_file ~pool path Client_intf.flags_wo) in
        ok_or_fail "write" (iface.Client_intf.write ~pool fd ~off:0 ~len:65536);
        iface.Client_intf.close ~pool fd;
        if k mod 10 <> 0 then ok_or_fail "unlink" (iface.Client_intf.unlink ~pool path)
      done;
      check_int "kept files plus the open one" ((n / 10) + 1) (inode_count ());
      iface.Client_intf.close ~pool held;
      check_int "kept files only" (n / 10) (inode_count ());
      finished := true);
  Engine.run_until w.engine 120.0;
  check_bool "churn ran to the end" true !finished

let test_kernel_churn_inode_count () =
  let w = make_world () in
  Kernel.start_flushers w.kernel;
  let kc = make_kernel_client w "cephfs0" in
  churn_holds_linked_or_open w (Kernel_client.iface kc) ~pool:(pool_of ())
    ~inode_count:(fun () -> Kernel_client.inode_count kc)

let test_lib_churn_inode_count () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "lib0" in
  churn_holds_linked_or_open w (Lib_client.iface c) ~pool
    ~inode_count:(fun () -> Lib_client.inode_count c)

(* A descriptor shared by two threads: one blocks in a read that misses
   the cache while the other closes the descriptor and unlinks the file.
   The read in flight holds the inode (Linux fget/fput), so the client
   evicts it when the read returns, not under it. *)
let read_in_flight_holds_inode w iface ~pool ~inode_count =
  let finished = ref false in
  Engine.spawn w.engine (fun () ->
      let path = "/shared" in
      let size = mib 16 in
      let attr =
        match Cluster.create_file w.cluster path with
        | Ok a -> a
        | Error _ -> Alcotest.fail "create_file"
      in
      (match Cluster.write_range w.cluster ~ino:attr.Namespace.ino ~off:0 ~len:size with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write_range");
      (match Cluster.set_size w.cluster path size with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "set_size");
      let fd = ok_or_fail "open" (iface.Client_intf.open_file ~pool path Client_intf.flags_ro) in
      let got = ref (-1) in
      let wg = Waitgroup.create w.engine in
      Waitgroup.add wg;
      Engine.fork (fun () ->
          got := ok_or_fail "read" (iface.Client_intf.read ~pool fd ~off:0 ~len:size);
          Waitgroup.finish wg);
      Engine.sleep 100e-6;
      iface.Client_intf.close ~pool fd;
      ok_or_fail "unlink" (iface.Client_intf.unlink ~pool path);
      check_bool "the read is still in flight" true (!got < 0);
      check_int "the read holds the unlinked inode" 1 (inode_count ());
      Waitgroup.wait wg;
      check_int "the read completed" size !got;
      check_int "evicted when the read returned" 0 (inode_count ());
      finished := true);
  Engine.run_until w.engine 60.0;
  check_bool "scenario ran to the end" true !finished

let test_kernel_read_in_flight () =
  let w = make_world () in
  Kernel.start_flushers w.kernel;
  let kc = make_kernel_client w "cephfs0" in
  read_in_flight_holds_inode w (Kernel_client.iface kc) ~pool:(pool_of ())
    ~inode_count:(fun () -> Kernel_client.inode_count kc)

let test_lib_read_in_flight () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "lib0" in
  read_in_flight_holds_inode w (Lib_client.iface c) ~pool
    ~inode_count:(fun () -> Lib_client.inode_count c)

let lifecycle_suite =
  let tc = Alcotest.test_case in
  [
    ( "client.inode_lifecycle",
      [
        tc "K: unlinked open file" `Quick test_kernel_unlinked_open_file;
        tc "D: unlinked open file" `Quick test_lib_unlinked_open_file;
        tc "K: churn holds linked-or-open" `Quick test_kernel_churn_inode_count;
        tc "D: churn holds linked-or-open" `Quick test_lib_churn_inode_count;
        tc "K: read in flight holds the inode" `Quick test_kernel_read_in_flight;
        tc "D: read in flight holds the inode" `Quick test_lib_read_in_flight;
      ] );
  ]

let suite = suite @ lifecycle_suite
