(* Tests for the storage backend: paths, namespace, placement, striping,
   OSD/MDS service and the assembled cluster. *)

open Danaus_sim
open Danaus_hw
open Danaus_ceph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let mib n = n * 1024 * 1024

(* Data-path ops return a Result since the fault-injection work; most
   tests expect the happy path. *)
let io_ok = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "io error: %s" (Cluster.io_error_to_string e)

(* ------------------------------------------------------------------ *)
(* Fspath *)

let test_fspath () =
  check_str "normalize" "/a/b" (Fspath.normalize "//a///b/");
  check_str "normalize root" "/" (Fspath.normalize "/");
  check_str "parent" "/a" (Fspath.parent "/a/b");
  check_str "parent of top" "/" (Fspath.parent "/a");
  check_str "root parent" "/" (Fspath.parent "/");
  check_str "basename" "b" (Fspath.basename "/a/b");
  check_str "root basename" "" (Fspath.basename "/");
  check_str "join" "/a/b" (Fspath.join "/a" "b");
  check_str "join at root" "/b" (Fspath.join "/" "b");
  check_bool "is_root" true (Fspath.is_root "//")

(* ------------------------------------------------------------------ *)
(* Namespace *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Namespace.error_to_string e)

let expect_err want = function
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
      Alcotest.(check string) "error kind" (Namespace.error_to_string want)
        (Namespace.error_to_string e)

let test_ns_create_lookup () =
  let ns = Namespace.create () in
  let a = ok (Namespace.create_file ns "/f") in
  check_bool "file" false a.Namespace.is_dir;
  (match Namespace.lookup ns "/f" with
  | Some attr -> check_int "ino stable" a.Namespace.ino attr.Namespace.ino
  | None -> Alcotest.fail "lookup failed");
  expect_err Namespace.Exists (Namespace.create_file ns "/f");
  expect_err Namespace.No_parent (Namespace.create_file ns "/no/such/f")

let test_ns_mkdir_p_and_readdir () =
  let ns = Namespace.create () in
  ignore (ok (Namespace.mkdir_p ns "/a/b/c"));
  ignore (ok (Namespace.create_file ns "/a/b/f1"));
  ignore (ok (Namespace.create_file ns "/a/b/f2"));
  Alcotest.(check (list string)) "sorted children" [ "c"; "f1"; "f2" ]
    (ok (Namespace.readdir ns "/a/b"));
  expect_err Namespace.No_entry (Namespace.readdir ns "/zzz")

let test_ns_unlink_rmdir () =
  let ns = Namespace.create () in
  ignore (ok (Namespace.mkdir_p ns "/d"));
  ignore (ok (Namespace.create_file ns "/d/f"));
  expect_err Namespace.Not_empty (Namespace.rmdir ns "/d");
  expect_err Namespace.Is_dir (Namespace.unlink ns "/d");
  ok (Namespace.unlink ns "/d/f");
  ok (Namespace.rmdir ns "/d");
  check_bool "gone" true (Namespace.lookup ns "/d" = None)

let test_ns_rename_tree () =
  let ns = Namespace.create () in
  ignore (ok (Namespace.mkdir_p ns "/src/sub"));
  ignore (ok (Namespace.create_file ns "/src/sub/f"));
  ok (Namespace.rename ns ~src:"/src" ~dst:"/dst");
  check_bool "old gone" true (Namespace.lookup ns "/src/sub/f" = None);
  check_bool "moved" true (Namespace.lookup ns "/dst/sub/f" <> None);
  Alcotest.(check (list string)) "children moved" [ "sub" ]
    (ok (Namespace.readdir ns "/dst"))

let test_ns_set_size () =
  let ns = Namespace.create () in
  ignore (ok (Namespace.create_file ns "/f"));
  ok (Namespace.set_size ns "/f" 12345);
  (match Namespace.lookup ns "/f" with
  | Some a -> check_int "size" 12345 a.Namespace.size
  | None -> Alcotest.fail "lookup");
  expect_err Namespace.Is_dir (Namespace.set_size ns "/" 1)

(* ------------------------------------------------------------------ *)
(* Crush / Striper *)

let test_crush_deterministic_distinct () =
  let p1 = Crush.place ~osds:6 ~replicas:3 "obj-a" in
  let p2 = Crush.place ~osds:6 ~replicas:3 "obj-a" in
  check_bool "deterministic" true (p1 = p2);
  check_int "3 replicas" 3 (List.length p1);
  check_int "distinct" 3 (List.length (List.sort_uniq Int.compare p1))

let test_crush_balance () =
  let counts = Array.make 6 0 in
  for i = 0 to 5999 do
    let o = Crush.primary ~osds:6 (Printf.sprintf "obj-%d" i) in
    counts.(o) <- counts.(o) + 1
  done;
  Array.iter
    (fun c -> check_bool "roughly uniform (600..1400)" true (c > 600 && c < 1400))
    counts

let test_striper_split () =
  let objs = Striper.objects ~object_size:(mib 4) ~ino:7 ~off:(mib 2) ~len:(mib 8) in
  check_int "spans 3 objects" 3 (List.length objs);
  let total = List.fold_left (fun acc (_, b) -> acc + b) 0 objs in
  check_int "bytes conserved" (mib 8) total;
  match objs with
  | (o1, b1) :: _ ->
      check_str "first object name"
        (Striper.object_of ~object_size:(mib 4) ~ino:7 ~off:(mib 2))
        o1;
      check_int "first object partial" (mib 2) b1
  | [] -> Alcotest.fail "no objects"

let prop_striper_conserves =
  QCheck.Test.make ~name:"striper conserves bytes and stays in range" ~count:300
    QCheck.(
      triple (int_range 1 1000) (int_range 0 100_000_000) (int_range 0 50_000_000))
    (fun (ino, off, len) ->
      let object_size = 4 * 1024 * 1024 in
      let objs = Striper.objects ~object_size ~ino ~off ~len in
      let total = List.fold_left (fun acc (_, b) -> acc + b) 0 objs in
      total = max 0 len
      && List.for_all (fun (_, b) -> b > 0 && b <= object_size) objs)

let prop_crush_valid =
  QCheck.Test.make ~name:"crush placement valid" ~count:300
    QCheck.(pair (int_range 1 20) small_string)
    (fun (osds, name) ->
      let replicas = 1 + (String.length name mod osds) in
      let p = Crush.place ~osds ~replicas name in
      List.length p = replicas
      && List.for_all (fun i -> i >= 0 && i < osds) p
      && List.length (List.sort_uniq Int.compare p) = replicas)

(* ------------------------------------------------------------------ *)
(* OSD / MDS / Cluster *)

let make_cluster ?(osd_count = 6) ?(replicas = 1) () =
  let e = Engine.create () in
  let net = Net.create e in
  let client_node = Net.add_node net ~name:"client" ~bandwidth:2.5e9 ~latency:20e-6 in
  let server_node = Net.add_node net ~name:"server" ~bandwidth:2.5e9 ~latency:20e-6 in
  let osds =
    Array.init osd_count (fun i ->
        let data =
          Disk.create e ~name:(Printf.sprintf "osd%d-data" i) ~bandwidth:2e9
            ~latency:5e-6 ~seek:0.0
        in
        let journal =
          Disk.create e ~name:(Printf.sprintf "osd%d-journal" i) ~bandwidth:2e9
            ~latency:5e-6 ~seek:0.0
        in
        Osd.create e ~name:(Printf.sprintf "osd%d" i) ~data ~journal ~concurrency:8
          ~op_cost:30e-6 ~cpu_per_byte:(1.0 /. 4e9))
  in
  let mds = Mds.create e ~concurrency:8 ~op_cost:50e-6 in
  let cluster =
    Cluster.create e ~net ~client_node ~server_node ~osds ~mds ~replicas
      ~object_size:(mib 4)
  in
  (e, cluster)

let test_osd_write_read () =
  let e = Engine.create () in
  let data = Disk.create e ~name:"d" ~bandwidth:2e9 ~latency:0.0 ~seek:0.0 in
  let journal = Disk.create e ~name:"j" ~bandwidth:2e9 ~latency:0.0 ~seek:0.0 in
  let osd =
    Osd.create e ~name:"osd0" ~data ~journal ~concurrency:2 ~op_cost:1e-5
      ~cpu_per_byte:0.0
  in
  Engine.spawn e (fun () ->
      Osd.write osd ~obj:"o1" ~bytes:(mib 1);
      Osd.read osd ~obj:"o1" ~bytes:(mib 1));
  Engine.run e;
  check_int "object recorded" 1 (Osd.objects_stored osd);
  check_int "size tracked" (mib 1) (Osd.object_size osd ~obj:"o1");
  check_bool "journal written" true
    (Disk.bytes_transferred journal >= float_of_int (mib 1));
  check_bool "read counted" true (Osd.bytes_read osd >= float_of_int (mib 1))

let test_osd_concurrency_limit () =
  let e = Engine.create () in
  let data = Disk.create e ~name:"d" ~bandwidth:1e12 ~latency:0.0 ~seek:0.0 in
  let journal = Disk.create e ~name:"j" ~bandwidth:1e12 ~latency:0.0 ~seek:0.0 in
  let osd =
    Osd.create e ~name:"osd0" ~data ~journal ~concurrency:2 ~op_cost:1.0
      ~cpu_per_byte:0.0
  in
  for _ = 1 to 4 do
    Engine.spawn e (fun () -> Osd.read osd ~obj:"o" ~bytes:0)
  done;
  Engine.run e;
  Alcotest.(check (float 1e-3)) "two waves of two" 2.0 (Engine.now e)

let test_mds_service () =
  let e = Engine.create () in
  let mds = Mds.create e ~concurrency:4 ~op_cost:1e-3 in
  Engine.spawn e (fun () ->
      let r = Mds.perform mds (fun ns -> Namespace.mkdir_p ns "/a/b") in
      check_bool "op succeeded" true (Result.is_ok r));
  Engine.run e;
  check_int "one op served" 1 (Mds.ops mds);
  Alcotest.(check (float 1e-6)) "cost charged" 1e-3 (Engine.now e)

let test_cluster_write_read_roundtrip () =
  let e, cluster = make_cluster () in
  Engine.spawn e (fun () ->
      io_ok (Cluster.write_range cluster ~ino:42 ~off:0 ~len:(mib 10));
      io_ok (Cluster.read_range cluster ~ino:42 ~off:0 ~len:(mib 10)));
  Engine.run e;
  let stored =
    Array.fold_left
      (fun acc osd -> acc + Osd.objects_stored osd)
      0 (Cluster.osds cluster)
  in
  check_int "10 MiB split into 3 objects of 4 MiB" 3 stored;
  let written =
    Array.fold_left
      (fun acc osd -> acc +. Osd.bytes_written osd)
      0.0 (Cluster.osds cluster)
  in
  check_bool "all bytes written" true (written >= float_of_int (mib 10))

let test_cluster_replication () =
  let e, cluster = make_cluster ~replicas:3 () in
  Engine.spawn e (fun () -> io_ok (Cluster.write_range cluster ~ino:1 ~off:0 ~len:(mib 4)));
  Engine.run e;
  let written =
    Array.fold_left
      (fun acc osd -> acc +. Osd.bytes_written osd)
      0.0 (Cluster.osds cluster)
  in
  Alcotest.(check (float 1.0)) "3 replicas written" (float_of_int (3 * mib 4)) written

let test_cluster_metadata_path () =
  let e, cluster = make_cluster () in
  Engine.spawn e (fun () ->
      ignore (Cluster.mkdir_p cluster "/images/debian");
      (match Cluster.create_file cluster "/images/debian/etc" with
      | Ok _ -> ()
      | Error err -> Alcotest.failf "create: %s" (Namespace.error_to_string err));
      ignore (Cluster.set_size cluster "/images/debian/etc" 100);
      match Cluster.lookup cluster "/images/debian/etc" with
      | Some a -> check_int "size visible" 100 a.Namespace.size
      | None -> Alcotest.fail "lookup failed");
  Engine.run e;
  check_bool "MDS charged time" true (Engine.now e > 0.0);
  check_int "MDS served ops" 4 (Mds.ops (Cluster.mds cluster))

let test_cluster_delete_range () =
  let e, cluster = make_cluster () in
  Engine.spawn e (fun () ->
      io_ok (Cluster.write_range cluster ~ino:9 ~off:0 ~len:(mib 8));
      Cluster.delete_range cluster ~ino:9 ~size:(mib 8));
  Engine.run e;
  let stored =
    Array.fold_left
      (fun acc osd -> acc + Osd.objects_stored osd)
      0 (Cluster.osds cluster)
  in
  check_int "objects removed" 0 stored

let prop_namespace_create_then_lookup =
  QCheck.Test.make ~name:"created files are always found" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 1 20)
        (string_gen_of_size Gen.(int_range 1 8) Gen.(char_range 'a' 'z')))
    (fun names ->
      let ns = Namespace.create () in
      let paths = List.map (fun n -> "/" ^ n) names in
      List.iter (fun p -> ignore (Namespace.create_file ns p)) paths;
      List.for_all (fun p -> Namespace.lookup ns p <> None) paths)

(* The object-name and placement memos hold only live objects: a
   create/write/delete churn leaves the kept files' objects in both, and
   a re-created object lands on the OSDs it used before.  The name
   table is per domain and shared by every cluster, so it is measured
   as a delta over inode numbers no other test uses. *)
let test_cluster_memos_track_live_objects () =
  let e, cluster = make_cluster ~replicas:3 () in
  let base = 0x7ee000 and files = 20 and per_file = 2 in
  let kept i = i mod 5 = 0 in
  let holders ino =
    let obj = Striper.object_of ~object_size:(mib 4) ~ino ~off:0 in
    Array.to_list (Cluster.osds cluster)
    |> List.filter (fun osd -> Osd.has_object osd ~obj)
    |> List.map Osd.name
  in
  let names0 = Striper.interned () in
  let first_holders = ref [] in
  Engine.spawn e (fun () ->
      for i = 0 to files - 1 do
        let ino = base + i in
        io_ok (Cluster.write_range cluster ~ino ~off:0 ~len:(mib (4 * per_file)));
        io_ok (Cluster.read_range cluster ~ino ~off:0 ~len:(mib 1));
        if i = 1 then first_holders := holders ino;
        if not (kept i) then Cluster.delete_range cluster ~ino ~size:(mib (4 * per_file))
      done);
  Engine.run e;
  let live = files / 5 * per_file in
  check_int "placements: live objects only" live (Cluster.cached_placements cluster);
  check_int "names: live objects only" live (Striper.interned () - names0);
  check_bool "deleted object had holders" true (List.length !first_holders = 3);
  Engine.spawn e (fun () ->
      io_ok (Cluster.write_range cluster ~ino:(base + 1) ~off:0 ~len:(mib 1)));
  Engine.run e;
  Alcotest.(check (list string)) "re-created object, same placement" !first_holders
    (holders (base + 1));
  check_int "placement memoised again" (live + 1) (Cluster.cached_placements cluster)

let suite =
  let tc = Alcotest.test_case in
  [
    ("ceph.fspath", [ tc "operations" `Quick test_fspath ]);
    ( "ceph.namespace",
      [
        tc "create and lookup" `Quick test_ns_create_lookup;
        tc "mkdir_p and readdir" `Quick test_ns_mkdir_p_and_readdir;
        tc "unlink and rmdir" `Quick test_ns_unlink_rmdir;
        tc "rename subtree" `Quick test_ns_rename_tree;
        tc "set_size" `Quick test_ns_set_size;
      ] );
    ( "ceph.placement",
      [
        tc "crush deterministic" `Quick test_crush_deterministic_distinct;
        tc "crush balance" `Quick test_crush_balance;
        tc "striper split" `Quick test_striper_split;
      ] );
    ( "ceph.servers",
      [
        tc "osd write/read" `Quick test_osd_write_read;
        tc "osd concurrency limit" `Quick test_osd_concurrency_limit;
        tc "mds service" `Quick test_mds_service;
      ] );
    ( "ceph.cluster",
      [
        tc "write/read roundtrip" `Quick test_cluster_write_read_roundtrip;
        tc "replication" `Quick test_cluster_replication;
        tc "metadata path" `Quick test_cluster_metadata_path;
        tc "delete range" `Quick test_cluster_delete_range;
        tc "memos track live objects" `Quick test_cluster_memos_track_live_objects;
      ] );
    ( "ceph.properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_striper_conserves; prop_crush_valid; prop_namespace_create_then_lookup ]
    );
  ]

(* ------------------------------------------------------------------ *)
(* Failure handling: OSD down + replica failover *)

let test_replica_failover_on_read () =
  let e, cluster = make_cluster ~replicas:3 () in
  Engine.spawn e (fun () ->
      io_ok (Cluster.write_range cluster ~ino:5 ~off:0 ~len:(mib 4));
      (* take the primary of the object down: reads must fail over *)
      let obj = Striper.object_of ~object_size:(mib 4) ~ino:5 ~off:0 in
      let primary = Crush.primary ~osds:6 obj in
      Osd.set_up (Cluster.osds cluster).(primary) false;
      io_ok (Cluster.read_range cluster ~ino:5 ~off:0 ~len:(mib 4));
      check_bool "primary served no reads" true
        (Osd.bytes_read (Cluster.osds cluster).(primary) = 0.0);
      let replica_reads =
        Array.fold_left (fun acc o -> acc +. Osd.bytes_read o) 0.0
          (Cluster.osds cluster)
      in
      check_bool "a replica served the read" true
        (replica_reads >= float_of_int (mib 4)));
  Engine.run e

let test_write_skips_down_replica () =
  let e, cluster = make_cluster ~replicas:3 () in
  Engine.spawn e (fun () ->
      let obj = Striper.object_of ~object_size:(mib 4) ~ino:9 ~off:0 in
      let primary = Crush.primary ~osds:6 obj in
      Osd.set_up (Cluster.osds cluster).(primary) false;
      io_ok (Cluster.write_range cluster ~ino:9 ~off:0 ~len:(mib 4));
      check_bool "down replica skipped" true
        (Osd.bytes_written (Cluster.osds cluster).(primary) = 0.0);
      let written =
        Array.fold_left (fun acc o -> acc +. Osd.bytes_written o) 0.0
          (Cluster.osds cluster)
      in
      Alcotest.(check (float 1.0)) "two live replicas written"
        (float_of_int (2 * mib 4)) written);
  Engine.run e

let test_unreplicated_read_fails_when_down () =
  let e, cluster = make_cluster ~replicas:1 () in
  let failed = ref false in
  Engine.spawn e (fun () ->
      io_ok (Cluster.write_range cluster ~ino:3 ~off:0 ~len:(mib 4));
      Array.iter (fun o -> Osd.set_up o false) (Cluster.osds cluster);
      match Cluster.read_range cluster ~ino:3 ~off:0 ~len:(mib 4) with
      | Ok () | Error Cluster.Deadline_exceeded -> ()
      | Error (Cluster.No_replica _) -> failed := true);
  Engine.run e;
  check_bool "read failed with every replica down" true !failed

let failover_suite =
  let tc = Alcotest.test_case in
  [
    ( "ceph.failover",
      [
        tc "read fails over to replica" `Quick test_replica_failover_on_read;
        tc "write skips down replica" `Quick test_write_skips_down_replica;
        tc "unreplicated read fails" `Quick test_unreplicated_read_fails_when_down;
      ] );
  ]

let suite = suite @ failover_suite

(* ------------------------------------------------------------------ *)
(* More namespace properties *)

let prop_rename_preserves_entry_count =
  QCheck.Test.make ~name:"rename preserves the entry count" ~count:100
    QCheck.(
      pair
        (string_gen_of_size Gen.(int_range 1 8) Gen.(char_range 'a' 'z'))
        (string_gen_of_size Gen.(int_range 1 8) Gen.(char_range 'a' 'z')))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let ns = Namespace.create () in
      ignore (Namespace.create_file ns ("/" ^ a));
      let before = Namespace.entry_count ns in
      match Namespace.rename ns ~src:("/" ^ a) ~dst:("/" ^ b) with
      | Ok () ->
          Namespace.entry_count ns = before
          && Namespace.lookup ns ("/" ^ a) = None
          && Namespace.lookup ns ("/" ^ b) <> None
      | Error _ -> false)

let prop_unlink_then_lookup_fails =
  QCheck.Test.make ~name:"unlinked files are gone" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 10)
      (string_gen_of_size Gen.(int_range 1 6) Gen.(char_range 'a' 'z')))
    (fun names ->
      let ns = Namespace.create () in
      let paths = List.sort_uniq String.compare (List.map (fun n -> "/" ^ n) names) in
      List.iter (fun p -> ignore (Namespace.create_file ns p)) paths;
      List.for_all
        (fun p -> Namespace.unlink ns p = Ok () && Namespace.lookup ns p = None)
        paths)

let prop_rename_to_existing_fails =
  QCheck.Test.make ~name:"rename onto an existing path fails" ~count:50
    QCheck.unit
    (fun () ->
      let ns = Namespace.create () in
      ignore (Namespace.create_file ns "/a");
      ignore (Namespace.create_file ns "/b");
      Namespace.rename ns ~src:"/a" ~dst:"/b" = Error Namespace.Exists)

let more_props_suite =
  [
    ( "ceph.more_properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_rename_preserves_entry_count;
          prop_unlink_then_lookup_fails;
          prop_rename_to_existing_fails;
        ] );
  ]

let suite = suite @ more_props_suite
