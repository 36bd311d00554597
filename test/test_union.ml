(* Tests for the union filesystem: lookup precedence, copy-up, whiteouts,
   merged readdir, rename, and FUSE wrapping. *)

open Danaus_sim
open Danaus_kernel
open Danaus_ceph
open Danaus_client
open Danaus_union
open Testbed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A world with one lib client holding a populated lower branch at /lower
   and an empty upper branch at /upper, unioned (upper on top). *)
let make_union_world ?(extra_lower = []) () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "libc" in
  let i = Lib_client.iface c in
  let union =
    Union_fs.create ~name:"u0"
      ~branches:
        [
          { Union_fs.client = i; prefix = "/upper"; writable = true };
          { Union_fs.client = i; prefix = "/lower"; writable = false };
        ]
      ~charge:(pool_charge w) ()
  in
  (* populate the lower branch *)
  Engine.spawn w.engine (fun () ->
      ok_or_fail "mkdirs" (i.mkdir_p ~pool "/upper");
      ok_or_fail "mkdirs" (i.mkdir_p ~pool "/lower/etc");
      write_file i ~pool "/lower/etc/passwd" 4096;
      write_file i ~pool "/lower/bigfile" (mib 4);
      List.iter (fun (p, n) -> write_file i ~pool ("/lower" ^ p) n) extra_lower);
  Engine.run_until w.engine 60.0;
  (w, pool, i, union)

let test_lookup_lower_visible () =
  let w, pool, _, u = make_union_world () in
  Engine.spawn w.engine (fun () ->
      let a = ok_or_fail "stat" (u.Client_intf.stat ~pool "/etc/passwd") in
      check_int "lower file size" 4096 a.Namespace.size;
      let fd = ok_or_fail "open ro" (u.Client_intf.open_file ~pool "/etc/passwd" Client_intf.flags_ro) in
      let n = ok_or_fail "read" (u.Client_intf.read ~pool fd ~off:0 ~len:8192) in
      check_int "short read of lower file" 4096 n;
      u.Client_intf.close ~pool fd);
  Engine.run_until w.engine 120.0

let test_upper_shadows_lower () =
  let w, pool, i, u = make_union_world () in
  Engine.spawn w.engine (fun () ->
      (* same path exists in both branches with different sizes *)
      write_file i ~pool "/upper/etc/passwd" 100;
      let a = ok_or_fail "stat" (u.Client_intf.stat ~pool "/etc/passwd") in
      check_int "upper wins" 100 a.Namespace.size);
  Engine.run_until w.engine 120.0

let test_copy_up_on_write () =
  let w, pool, i, u = make_union_world () in
  Engine.spawn w.engine (fun () ->
      let fd =
        ok_or_fail "open append"
          (u.Client_intf.open_file ~pool "/bigfile" Client_intf.flags_append)
      in
      ok_or_fail "append" (u.Client_intf.append ~pool fd ~len:(mib 1));
      u.Client_intf.close ~pool fd;
      check_int "one copy-up happened" 1 (Union_fs.copy_ups u);
      (* the upper branch now holds the full copy plus the append *)
      let a = ok_or_fail "stat upper" (i.stat ~pool "/upper/bigfile") in
      check_int "upper copy size" (mib 5) a.Namespace.size;
      (* lower branch is untouched *)
      let a = ok_or_fail "stat lower" (i.stat ~pool "/lower/bigfile") in
      check_int "lower intact" (mib 4) a.Namespace.size;
      (* the union sees the new size *)
      let a = ok_or_fail "stat union" (u.Client_intf.stat ~pool "/bigfile") in
      check_int "union sees appended size" (mib 5) a.Namespace.size);
  Engine.run_until w.engine 300.0

let test_trunc_skips_copy_up () =
  let w, pool, _, u = make_union_world () in
  Engine.spawn w.engine (fun () ->
      let fd =
        ok_or_fail "open trunc"
          (u.Client_intf.open_file ~pool "/bigfile" Client_intf.flags_wo)
      in
      u.Client_intf.close ~pool fd;
      check_int "no data copied for O_TRUNC" 0 (Union_fs.copy_ups u);
      let a = ok_or_fail "stat" (u.Client_intf.stat ~pool "/bigfile") in
      check_int "truncated view" 0 a.Namespace.size);
  Engine.run_until w.engine 120.0

let test_whiteout_on_unlink () =
  let w, pool, i, u = make_union_world () in
  Engine.spawn w.engine (fun () ->
      ok_or_fail "unlink" (u.Client_intf.unlink ~pool "/etc/passwd");
      (match u.Client_intf.stat ~pool "/etc/passwd" with
      | Error (Client_intf.Fs Namespace.No_entry) -> ()
      | _ -> Alcotest.fail "unlinked file still visible");
      (* the lower copy is untouched; a whiteout hides it *)
      check_bool "lower copy still exists" true
        (Result.is_ok (i.stat ~pool "/lower/etc/passwd"));
      check_bool "whiteout created" true
        (Result.is_ok (i.stat ~pool "/upper/etc/.wh.passwd"));
      (* re-creating removes the whiteout and yields an upper file *)
      let fd =
        ok_or_fail "recreate"
          (u.Client_intf.open_file ~pool "/etc/passwd" Client_intf.flags_wo)
      in
      u.Client_intf.close ~pool fd;
      check_bool "file visible again" true
        (Result.is_ok (u.Client_intf.stat ~pool "/etc/passwd")));
  Engine.run_until w.engine 120.0

let test_readdir_merge () =
  let w, pool, i, u = make_union_world () in
  Engine.spawn w.engine (fun () ->
      write_file i ~pool "/upper/etc/hosts" 10;
      ok_or_fail "unlink lower" (u.Client_intf.unlink ~pool "/etc/passwd");
      let names = ok_or_fail "readdir" (u.Client_intf.readdir ~pool "/etc") in
      Alcotest.(check (list string)) "merged minus whiteouts" [ "hosts" ] names);
  Engine.run_until w.engine 120.0

let test_readdir_dedup () =
  let w, pool, i, u = make_union_world () in
  Engine.spawn w.engine (fun () ->
      write_file i ~pool "/upper/etc/passwd" 5;
      let names = ok_or_fail "readdir" (u.Client_intf.readdir ~pool "/etc") in
      Alcotest.(check (list string)) "no duplicates" [ "passwd" ] names);
  Engine.run_until w.engine 120.0

let test_rename_lower_file () =
  let w, pool, _, u = make_union_world () in
  Engine.spawn w.engine (fun () ->
      ok_or_fail "rename" (u.Client_intf.rename ~pool ~src:"/etc/passwd" ~dst:"/etc/passwd.bak");
      (match u.Client_intf.stat ~pool "/etc/passwd" with
      | Error (Client_intf.Fs Namespace.No_entry) -> ()
      | _ -> Alcotest.fail "source still visible");
      let a = ok_or_fail "stat dst" (u.Client_intf.stat ~pool "/etc/passwd.bak") in
      check_int "content moved" 4096 a.Namespace.size;
      check_int "rename of lower file copied up" 1 (Union_fs.copy_ups u));
  Engine.run_until w.engine 120.0

let test_read_only_union_rejects_writes () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "libc" in
  let i = Lib_client.iface c in
  let u =
    Union_fs.create ~name:"ro"
      ~branches:[ { Union_fs.client = i; prefix = "/lower"; writable = false } ]
      ~charge:(pool_charge w) ()
  in
  Engine.spawn w.engine (fun () ->
      ok_or_fail "mkdir" (i.mkdir_p ~pool "/lower");
      match u.Client_intf.open_file ~pool "/x" Client_intf.flags_wo with
      | Error Client_intf.Read_only -> ()
      | _ -> Alcotest.fail "expected Read_only");
  Engine.run_until w.engine 60.0

let test_fuse_wrapped_union_crosses_fuse () =
  let w, pool, _, u = make_union_world () in
  let wrapped = Fuse_wrap.wrap w.kernel ~pool ~name:"unionfs-fuse" u in
  Engine.spawn w.engine (fun () ->
      let before =
        Obs.get (Kernel.obs w.kernel) ~layer:"kernel" ~name:"fuse_requests" ~key:"pool0"
      in
      ignore (ok_or_fail "stat" (wrapped.Client_intf.stat ~pool "/etc/passwd"));
      let after =
        Obs.get (Kernel.obs w.kernel) ~layer:"kernel" ~name:"fuse_requests" ~key:"pool0"
      in
      check_bool "stat crossed FUSE" true (after > before));
  Engine.run_until w.engine 120.0

let prop_union_precedence =
  QCheck.Test.make ~name:"upper branch always wins lookups" ~count:20
    QCheck.(pair (int_range 1 100) (int_range 101 200))
    (fun (upper_size, lower_size) ->
      let w = make_world () in
      let pool = pool_of () in
      let c = make_lib_client w pool "libc" in
      let i = Lib_client.iface c in
      let u =
        Union_fs.create ~name:"prop-u"
          ~branches:
            [
              { Union_fs.client = i; prefix = "/up"; writable = true };
              { Union_fs.client = i; prefix = "/low"; writable = false };
            ]
          ~charge:(pool_charge w) ()
      in
      let result = ref (-1) in
      Engine.spawn w.engine (fun () ->
          ok_or_fail "mk" (i.mkdir_p ~pool "/up");
          ok_or_fail "mk" (i.mkdir_p ~pool "/low");
          write_file i ~pool "/up/f" upper_size;
          write_file i ~pool "/low/f" lower_size;
          match u.Client_intf.stat ~pool "/f" with
          | Ok a -> result := a.Namespace.size
          | Error _ -> ());
      Engine.run_until w.engine 120.0;
      !result = upper_size)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "union.lookup",
      [
        tc "lower visible" `Quick test_lookup_lower_visible;
        tc "upper shadows lower" `Quick test_upper_shadows_lower;
      ] );
    ( "union.cow",
      [
        tc "copy-up on write" `Quick test_copy_up_on_write;
        tc "O_TRUNC skips copy-up" `Quick test_trunc_skips_copy_up;
      ] );
    ( "union.whiteout",
      [
        tc "whiteout on unlink" `Quick test_whiteout_on_unlink;
        tc "readdir merge" `Quick test_readdir_merge;
        tc "readdir dedup" `Quick test_readdir_dedup;
      ] );
    ( "union.misc",
      [
        tc "rename lower file" `Quick test_rename_lower_file;
        tc "read-only union" `Quick test_read_only_union_rejects_writes;
        tc "FUSE-wrapped union" `Quick test_fuse_wrapped_union_crosses_fuse;
      ] );
    ("union.properties", List.map QCheck_alcotest.to_alcotest [ prop_union_precedence ]);
  ]

(* ------------------------------------------------------------------ *)
(* Deeper stacks and cross-client branches *)

let test_three_branch_stack_with_middle_whiteout () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "libc3" in
  let i = Lib_client.iface c in
  let u =
    Union_fs.create ~name:"u3"
      ~branches:
        [
          { Union_fs.client = i; prefix = "/top"; writable = true };
          { Union_fs.client = i; prefix = "/mid"; writable = false };
          { Union_fs.client = i; prefix = "/bot"; writable = false };
        ]
      ~charge:(pool_charge w) ()
  in
  Engine.spawn w.engine (fun () ->
      ok_or_fail "mk" (i.mkdir_p ~pool "/top");
      ok_or_fail "mk" (i.mkdir_p ~pool "/mid");
      ok_or_fail "mk" (i.mkdir_p ~pool "/bot");
      (* /bot has the file; /mid hides it with a whiteout (image build
         deleted it in a later layer) *)
      write_file i ~pool "/bot/hidden" 100;
      write_file i ~pool "/mid/.wh.hidden" 0;
      write_file i ~pool "/bot/visible" 200;
      (match u.Client_intf.stat ~pool "/hidden" with
      | Error (Client_intf.Fs Danaus_ceph.Namespace.No_entry) -> ()
      | _ -> Alcotest.fail "middle-layer whiteout ignored");
      let a = ok_or_fail "stat" (u.Client_intf.stat ~pool "/visible") in
      Alcotest.(check int) "bottom file visible" 200 a.Danaus_ceph.Namespace.size;
      let names = ok_or_fail "readdir" (u.Client_intf.readdir ~pool "/") in
      Alcotest.(check (list string)) "merged minus middle whiteout" [ "visible" ] names);
  Engine.run_until w.engine 120.0

let test_branches_on_distinct_clients () =
  (* upper on one client, lower on another: copy-up moves data across
     client instances *)
  let w = make_world () in
  let pool = pool_of () in
  let upper_c = make_lib_client w pool "upperc" in
  let lower_c = make_lib_client w pool "lowerc" in
  let ui = Lib_client.iface upper_c and li = Lib_client.iface lower_c in
  let u =
    Union_fs.create ~name:"u-cross"
      ~branches:
        [
          { Union_fs.client = ui; prefix = "/up"; writable = true };
          { Union_fs.client = li; prefix = "/low"; writable = false };
        ]
      ~charge:(pool_charge w) ()
  in
  Engine.spawn w.engine (fun () ->
      ok_or_fail "mk" (ui.mkdir_p ~pool "/up");
      ok_or_fail "mk" (li.mkdir_p ~pool "/low");
      write_file li ~pool "/low/data" (mib 1);
      let fd =
        ok_or_fail "append"
          (u.Client_intf.open_file ~pool "/data" Client_intf.flags_append)
      in
      ok_or_fail "append" (u.Client_intf.append ~pool fd ~len:4096);
      u.Client_intf.close ~pool fd;
      let a = ok_or_fail "stat upper" (ui.stat ~pool "/up/data") in
      Alcotest.(check int) "copied across clients" (mib 1 + 4096)
        a.Danaus_ceph.Namespace.size);
  Engine.run_until w.engine 300.0

let prop_whiteout_name_roundtrip =
  QCheck.Test.make ~name:"whiteout name mangling round-trips" ~count:200
    QCheck.(string_gen_of_size Gen.(int_range 1 32) Gen.(char_range 'a' 'z'))
    (fun name ->
      let wh = Whiteout.of_path ("/d/" ^ name) in
      Whiteout.is_whiteout (Danaus_ceph.Fspath.basename wh)
      && Whiteout.hidden_name (Danaus_ceph.Fspath.basename wh) = Some name)

let extra_suite =
  let tc = Alcotest.test_case in
  [
    ( "union.stacks",
      [
        tc "three branches, middle whiteout" `Quick test_three_branch_stack_with_middle_whiteout;
        tc "branches on distinct clients" `Quick test_branches_on_distinct_clients;
      ] );
    ( "union.more_properties",
      List.map QCheck_alcotest.to_alcotest [ prop_whiteout_name_roundtrip ] );
  ]

let suite = suite @ extra_suite

(* ------------------------------------------------------------------ *)
(* Block-level copy-on-write (§9 extension) *)

let make_block_cow_world () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "libcb" in
  let i = Lib_client.iface c in
  let u =
    Union_fs.create ~name:"u-bcow"
      ~branches:
        [
          { Union_fs.client = i; prefix = "/upper"; writable = true };
          { Union_fs.client = i; prefix = "/lower"; writable = false };
        ]
      ~charge:(pool_charge w) ~block_cow:(64 * 1024) ()
  in
  Engine.spawn w.engine (fun () ->
      ok_or_fail "mk" (i.mkdir_p ~pool "/upper");
      ok_or_fail "mk" (i.mkdir_p ~pool "/lower");
      write_file i ~pool "/lower/big" (mib 8));
  Engine.run_until w.engine 60.0;
  (w, pool, i, u)

let test_block_cow_append_no_copy () =
  let w, pool, i, u = make_block_cow_world () in
  Engine.spawn w.engine (fun () ->
      let osd_before = total_osd_written w.cluster in
      let fd =
        ok_or_fail "open append"
          (u.Client_intf.open_file ~pool "/big" Client_intf.flags_append)
      in
      ok_or_fail "append" (u.Client_intf.append ~pool fd ~len:(mib 1));
      ok_or_fail "fsync" (u.Client_intf.fsync ~pool fd);
      u.Client_intf.close ~pool fd;
      check_int "no whole-file copy-up" 0 (Union_fs.copy_ups u);
      (* only the appended megabyte went to the backend, not 8 MiB *)
      check_bool "write amplification avoided" true
        (total_osd_written w.cluster -. osd_before < float_of_int (mib 2));
      (* the union's view has the merged size *)
      let a = ok_or_fail "stat" (u.Client_intf.stat ~pool "/big") in
      check_int "merged size" (mib 9) a.Namespace.size;
      (* the lower file is untouched; the delta lives in the upper branch *)
      let a = ok_or_fail "stat lower" (i.stat ~pool "/lower/big") in
      check_int "lower intact" (mib 8) a.Namespace.size;
      check_bool "delta file exists" true
        (Result.is_ok (i.stat ~pool "/upper/.wh.big" )= false
         && Result.is_ok (i.stat ~pool "/upper/.cow.big")));
  Engine.run_until w.engine 300.0

let test_block_cow_read_merges_sides () =
  let w, pool, _, u = make_block_cow_world () in
  Engine.spawn w.engine (fun () ->
      let fd =
        ok_or_fail "open rw"
          (u.Client_intf.open_file ~pool "/big"
             { Client_intf.rd = true; wr = true; append = false; create = false; trunc = false })
      in
      (* overwrite one interior megabyte *)
      ok_or_fail "write" (u.Client_intf.write ~pool fd ~off:(mib 2) ~len:(mib 1));
      (* a read spanning lower + upper + lower segments returns fully *)
      check_int "spanning read" (mib 4)
        (ok_or_fail "read" (u.Client_intf.read ~pool fd ~off:(mib 1) ~len:(mib 4)));
      check_int "size unchanged by interior write" (mib 8)
        (ok_or_fail "size" (u.Client_intf.fd_size fd));
      u.Client_intf.close ~pool fd);
  Engine.run_until w.engine 300.0

let test_block_cow_hidden_and_unlinked () =
  let w, pool, _, u = make_block_cow_world () in
  Engine.spawn w.engine (fun () ->
      let fd =
        ok_or_fail "open" (u.Client_intf.open_file ~pool "/big" Client_intf.flags_append)
      in
      ok_or_fail "append" (u.Client_intf.append ~pool fd ~len:4096);
      u.Client_intf.close ~pool fd;
      Alcotest.(check (list string)) "delta hidden from readdir" [ "big" ]
        (ok_or_fail "readdir" (u.Client_intf.readdir ~pool "/"));
      ok_or_fail "unlink" (u.Client_intf.unlink ~pool "/big");
      (match u.Client_intf.stat ~pool "/big" with
      | Error (Client_intf.Fs Namespace.No_entry) -> ()
      | _ -> Alcotest.fail "still visible after unlink"));
  Engine.run_until w.engine 300.0

let test_block_cow_readonly_reopen_sees_delta () =
  let w, pool, _, u = make_block_cow_world () in
  Engine.spawn w.engine (fun () ->
      let fd =
        ok_or_fail "open" (u.Client_intf.open_file ~pool "/big" Client_intf.flags_append)
      in
      ok_or_fail "append" (u.Client_intf.append ~pool fd ~len:(mib 1));
      u.Client_intf.close ~pool fd;
      (* a fresh read-only open must see the merged 9 MiB *)
      let rfd =
        ok_or_fail "reopen ro" (u.Client_intf.open_file ~pool "/big" Client_intf.flags_ro)
      in
      check_int "reader sees the delta" (mib 9)
        (ok_or_fail "size" (u.Client_intf.fd_size rfd));
      check_int "full read" (mib 9)
        (ok_or_fail "read" (u.Client_intf.read ~pool rfd ~off:0 ~len:(mib 9)));
      u.Client_intf.close ~pool rfd);
  Engine.run_until w.engine 300.0

let block_cow_suite =
  let tc = Alcotest.test_case in
  [
    ( "union.block_cow",
      [
        tc "append copies nothing" `Quick test_block_cow_append_no_copy;
        tc "reads merge both sides" `Quick test_block_cow_read_merges_sides;
        tc "delta hidden and unlinked" `Quick test_block_cow_hidden_and_unlinked;
        tc "ro reopen sees delta" `Quick test_block_cow_readonly_reopen_sees_delta;
      ] );
  ]

let suite = suite @ block_cow_suite

(* ------------------------------------------------------------------ *)
(* Whiteout orphan scan and copy-up rollback (the correctness-harness
   satellites): check_whiteouts on empty/justified/orphaned uppers, and
   a mid-copy failure that must roll the partial upper copy back. *)

let test_whiteouts_empty_upper () =
  let w, pool, _, u = make_union_world () in
  let scanned = ref None in
  Engine.spawn w.engine (fun () ->
      scanned := Some (Union_fs.check_whiteouts u ~pool));
  Engine.run_until w.engine 120.0;
  Alcotest.(check (list string)) "no whiteouts in a fresh upper" []
    (Option.get !scanned)

let test_whiteouts_justified_vs_orphan () =
  let w, pool, i, u = make_union_world () in
  Engine.spawn w.engine (fun () ->
      (* a real deletion of a lower file leaves a justified whiteout *)
      ok_or_fail "unlink" (u.Client_intf.unlink ~pool "/etc/passwd");
      Alcotest.(check (list string)) "deletion whiteout is justified" []
        (Union_fs.check_whiteouts u ~pool);
      (* manufacture orphans: whiteouts covering nothing, one at the
         root and one in a nested directory *)
      write_file i ~pool "/upper/.wh.ghost" 0;
      ok_or_fail "mkdir" (i.Client_intf.mkdir_p ~pool "/upper/etc");
      write_file i ~pool "/upper/etc/.wh.nope" 0;
      Alcotest.(check (list string)) "orphans reported sorted" [ "/etc/nope"; "/ghost" ]
        (Union_fs.check_whiteouts u ~pool));
  Engine.run_until w.engine 240.0

(* Write-without-truncate flags: the open that forces a whole-file
   copy-up (flags_wo has trunc set, which legitimately skips the copy). *)
let flags_w_keep =
  { Client_intf.rd = false; wr = true; append = false; create = false; trunc = false }

let test_copy_up_rollback_on_mid_copy_failure () =
  let w = make_world () in
  let pool = pool_of () in
  let c = make_lib_client w pool "libc" in
  let i = Lib_client.iface c in
  (* lower branch whose reads fail from the second 1 MiB chunk on: the
     copy-up gets one good chunk into the upper copy, then dies *)
  let failing_lower =
    {
      i with
      Client_intf.read =
        (fun ~pool fd ~off ~len ->
          if off > 0 then Error Client_intf.Timed_out
          else i.Client_intf.read ~pool fd ~off ~len);
    }
  in
  let u =
    Union_fs.create ~name:"u-rb"
      ~branches:
        [
          { Union_fs.client = i; prefix = "/upper"; writable = true };
          { Union_fs.client = failing_lower; prefix = "/lower"; writable = false };
        ]
      ~charge:(pool_charge w) ()
  in
  Engine.spawn w.engine (fun () ->
      ok_or_fail "mkdirs" (i.Client_intf.mkdir_p ~pool "/upper");
      ok_or_fail "mkdirs" (i.Client_intf.mkdir_p ~pool "/lower/dir/sub");
      write_file i ~pool "/lower/dir/sub/big" (mib 3);
      (* nested-directory copy-up: fails on the second chunk *)
      (match u.Client_intf.open_file ~pool "/dir/sub/big" flags_w_keep with
      | Ok _ -> Alcotest.fail "copy-up unexpectedly succeeded"
      | Error Client_intf.Timed_out -> ()
      | Error e ->
          Alcotest.failf "unexpected error: %s" (Client_intf.error_to_string e));
      check_int "one copy-up attempted" 1 (Union_fs.copy_ups u);
      check_int "rollback counted" 1 (Union_fs.copy_up_rollbacks u);
      (* the partial upper copy must be gone... *)
      (match i.Client_intf.stat ~pool "/upper/dir/sub/big" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "partial upper copy survived the rollback");
      (* ...so the union still shows the intact lower file *)
      let a = ok_or_fail "stat" (u.Client_intf.stat ~pool "/dir/sub/big") in
      check_int "intact lower file still visible" (mib 3) a.Namespace.size);
  Engine.run_until w.engine 240.0

let harness_suite =
  let tc = Alcotest.test_case in
  [
    ( "union.harness",
      [
        tc "whiteout scan: empty upper" `Quick test_whiteouts_empty_upper;
        tc "whiteout scan: justified vs orphan" `Quick
          test_whiteouts_justified_vs_orphan;
        tc "copy-up rollback on mid-copy failure" `Quick
          test_copy_up_rollback_on_mid_copy_failure;
      ] );
  ]

let suite = suite @ harness_suite

(* Two unions with the same name — as two testbeds, or two domains of the
   parallel runner, would build — keep separate copy-up statistics. *)
let test_same_name_unions_independent () =
  let w1, pool1, _, u1 = make_union_world () in
  let _, _, _, u2 = make_union_world () in
  check_bool "same name" true (u1.Client_intf.name = u2.Client_intf.name);
  Engine.spawn w1.engine (fun () ->
      let fd =
        ok_or_fail "open append"
          (u1.Client_intf.open_file ~pool:pool1 "/bigfile" Client_intf.flags_append)
      in
      ok_or_fail "append" (u1.Client_intf.append ~pool:pool1 fd ~len:(mib 1));
      u1.Client_intf.close ~pool:pool1 fd);
  Engine.run_until w1.engine 120.0;
  check_int "the first union counts its copy-up" 1 (Union_fs.copy_ups u1);
  check_int "the second union counts none" 0 (Union_fs.copy_ups u2)

let instance_suite =
  [
    ( "union.instance",
      [
        Alcotest.test_case "same-name unions are independent" `Quick
          test_same_name_unions_independent;
      ] );
  ]

let suite = suite @ instance_suite
