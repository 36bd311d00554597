(* Machine-readable perf trajectory of the simulation core.

   Each entry runs one microbench — pure engine loops at the bottom,
   then single cells of the paper's seqio/contention workloads through
   the full client stack — and records wall time, engine events
   dispatched (Engine.global_events), and minor-heap words allocated.
   The derived figures of merit are events/sec (throughput) and minor
   words/event (allocation discipline; machine-independent).

   `danaus-cli bench --json` serializes a run to BENCH_<label>.json and
   `--baseline` gates it against a checked-in measurement: events/sec is
   compared after normalizing by a spin-loop calibration score so the
   gate holds across machines of different speeds, while words/event is
   compared directly.  See EXPERIMENTS.md "Perf trajectory". *)

open Danaus_sim
open Danaus_hw
open Danaus_kernel
open Danaus

type entry = {
  e_name : string;
  e_wall_s : float;
  e_events : int;
  e_minor_words : float;
  e_events_per_sec : float;
  e_words_per_event : float;
}

type result = {
  r_label : string;
  r_meta : (string * string) list; (* e.g. git_sha; round-trips via JSON *)
  r_calibration : float; (* spin-loop ops/sec: machine speed proxy *)
  r_entries : entry list;
}

let schema_version = 1

(* ------------------------------------------------------------------ *)
(* Measurement *)

(* Fixed pure-OCaml spin loop (xorshift); its ops/sec score normalizes
   events/sec across machines in the regression gate. *)
let calibrate () =
  let n = 20_000_000 in
  let x = ref 0x2545F4914F6CDD1D in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 0.0 then float_of_int n /. dt else 0.0

let measure_once name f =
  Gc.full_major ();
  let ev0 = Engine.global_events () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let events = Engine.global_events () - ev0 in
  {
    e_name = name;
    e_wall_s = wall;
    e_events = events;
    e_minor_words = words;
    e_events_per_sec =
      (if wall > 0.0 then float_of_int events /. wall else 0.0);
    e_words_per_event =
      (if events > 0 then words /. float_of_int events else 0.0);
  }

(* Best of three: each bench is deterministic in simulated time, so the
   repeats differ only by scheduler/cache noise on the host — the
   fastest run is the least-perturbed one.  Words/event is identical
   across repeats; keeping the max guards the gate all the same. *)
let measure name f =
  let rec go best n =
    if n = 0 then best
    else
      let e = measure_once name f in
      let best =
        {
          best with
          e_wall_s = Float.min best.e_wall_s e.e_wall_s;
          e_events_per_sec = Float.max best.e_events_per_sec e.e_events_per_sec;
          e_words_per_event =
            Float.max best.e_words_per_event e.e_words_per_event;
        }
      in
      go best (n - 1)
  in
  go (measure_once name f) 2

(* ------------------------------------------------------------------ *)
(* Microbenches: engine substrate *)

(* Pure scheduler cycle: one preallocated thunk reschedules itself, so
   the measured loop is exactly push/pop/dispatch.  This is the entry
   the zero-allocation regression test pins down. *)
let engine_cycle n () =
  let e = Engine.create () in
  let remaining = ref n in
  let rec tick () =
    remaining := !remaining - 1;
    if !remaining > 0 then Engine.schedule e tick
  in
  Engine.schedule e tick;
  Engine.run e

(* Effect-handler path: sleep suspends and re-queues the continuation. *)
let engine_sleep n () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      for _ = 1 to n do
        Engine.sleep 1e-6
      done);
  Engine.run e

let engine_fork n () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      for _ = 1 to n do
        Engine.fork (fun () -> Engine.yield ())
      done);
  Engine.run e

let mutex_handoff procs iters () =
  let e = Engine.create () in
  let m = Mutex_sim.create e ~name:"bench" in
  for _ = 1 to procs do
    Engine.spawn e (fun () ->
        for _ = 1 to iters do
          Mutex_sim.with_lock m (fun () -> Engine.sleep 1e-6)
        done)
  done;
  Engine.run e

(* Block-map churn: buffered writes, residency scans and full-file
   flushes over a 4 KiB-block file, the page-cache paths the kernel
   clients hit per I/O. *)
let page_cache_churn iters () =
  let e = Engine.create () in
  let mem = Memory.create ~name:"bench" () in
  let pc = Page_cache.create e ~mem ~limit:(1 lsl 30) ~block:4096 in
  let m = Page_cache.add_mount pc ~name:"bench" ~max_dirty:(1 lsl 29) () in
  let f = Page_cache.file pc m ~key:"f" ~flush:(fun ~bytes:_ -> ()) in
  let chunk = 4 * 1024 * 1024 in
  let span = 64 * 1024 * 1024 in
  Engine.spawn e (fun () ->
      for i = 0 to iters - 1 do
        let off = i * chunk mod span in
        Page_cache.write f ~off ~len:chunk;
        ignore (Page_cache.missing f ~off ~len:chunk);
        List.iter
          (fun (_, got) -> Page_cache.writeback_complete pc m ~bytes:got)
          (Page_cache.flush_file f);
        Engine.sleep 1e-6
      done);
  Engine.run e

(* ------------------------------------------------------------------ *)
(* Microbenches: single cells of the paper workloads, full stack *)

let mib n = n * 1024 * 1024

(* One seqwrite cell: 2 pools streaming sequential writes through the
   Danaus (D) user-space stack — striper, IPC, backend OSDs. *)
let seqio_cell () =
  let tb = Testbed.create ~seed:1 ~activated:4 () in
  let p =
    {
      Danaus_workloads.Seqio.default_params with
      Danaus_workloads.Seqio.file_size = mib 48;
      duration = 4.0;
      threads = 4;
    }
  in
  let pools = 2 in
  let done_count = ref 0 in
  List.iter
    (fun i ->
      let pool = Testbed.pool tb i in
      let ct =
        Container_engine.launch tb.Testbed.containers ~config:Config.d ~pool
          ~id:(Printf.sprintf "seq%d" i) ()
      in
      Engine.spawn tb.Testbed.engine (fun () ->
          let ctx = Testbed.ctx tb ~pool ~seed:(1200 + i) in
          ignore
            (Danaus_workloads.Seqio.run_write ctx
               ~view:ct.Container_engine.view p);
          incr done_count))
    [ 0; 1 ];
  Testbed.drive tb ~stop:(fun () -> !done_count = pools)

(* One contention cell: 2 Fileserver pools sharing the in-kernel Ceph
   client (K) — the shared-lock and shared-writeback collapse paths. *)
let contention_cell () =
  let tb = Testbed.create ~seed:1 ~activated:4 () in
  let p =
    {
      Danaus_workloads.Fileserver.default_params with
      Danaus_workloads.Fileserver.files = 60;
      mean_file_size = mib 1;
      threads = 4;
      duration = 4.0;
    }
  in
  let pools = 2 in
  let done_count = ref 0 in
  List.iter
    (fun i ->
      let pool = Testbed.pool tb i in
      let ct =
        Container_engine.launch tb.Testbed.containers ~config:Config.k ~pool
          ~id:(Printf.sprintf "fls%d" i) ()
      in
      Engine.spawn tb.Testbed.engine (fun () ->
          let ctx = Testbed.ctx tb ~pool ~seed:(300 + i) in
          Danaus_workloads.Fileserver.prepopulate ctx
            ~view:ct.Container_engine.view p;
          ignore
            (Danaus_workloads.Fileserver.run ctx ~view:ct.Container_engine.view
               p);
          incr done_count))
    [ 0; 1 ];
  Testbed.drive tb ~stop:(fun () -> !done_count = pools)

(* Small-file churn through the in-kernel Ceph client (K): create, write
   64 KiB, close and unlink, [files] times — the Fileserver metadata path
   where every inode's client state is built up and then evicted at
   unlink.  Pins the per-inode cost and allocation of that lifecycle. *)
let inode_churn files () =
  let open Danaus_client in
  let tb = Testbed.create ~seed:1 ~activated:4 () in
  let pool = Testbed.pool tb 0 in
  let kc =
    Kernel_client.create tb.Testbed.kernel ~cluster:tb.Testbed.cluster
      ~name:"churn.cephfs" ~max_dirty:(mib 256) ()
  in
  let fs = Kernel_client.iface kc in
  let finished = ref false in
  Engine.spawn tb.Testbed.engine (fun () ->
      for i = 0 to files - 1 do
        let path = Printf.sprintf "/churn/f%d" i in
        match fs.Client_intf.open_file ~pool path Client_intf.flags_wo with
        | Error _ -> failwith "inode-churn: create failed"
        | Ok fd ->
            ignore (fs.Client_intf.write ~pool fd ~off:0 ~len:65536);
            fs.Client_intf.close ~pool fd;
            ignore (fs.Client_intf.unlink ~pool path)
      done;
      finished := true);
  Testbed.drive tb ~stop:(fun () -> !finished)

(* One scheduler cell: a 3-host fleet with 6 placed pools, the
   controller's sample tick (per-host link-utilization deltas, signal
   windows, score gauges) run at high frequency.  Pins the cost of the
   periodic control plane the sched experiments layer on top. *)
let sched_tick ticks () =
  let open Danaus_sched in
  let mh = Multihost.create ~hosts:3 ~seed:1 () in
  let fleet =
    Fleet.create ~engine:mh.Multihost.engine
      ~policy:(module Placement.Contention_aware)
  in
  Array.iter
    (fun h ->
      Fleet.add_host fleet ~name:h.Multihost.h_name ~node:h.Multihost.h_node
        ~kernel:h.Multihost.h_kernel ~containers:h.Multihost.h_containers
        ~slots:4 ~mem:(mib 2048) ~link_bandwidth:Params.net_bandwidth)
    mh.Multihost.hosts;
  for i = 0 to 5 do
    match
      Fleet.place fleet
        (Fleet.spec
           ~pool:(Printf.sprintf "bench%d" i)
           ~id:"c0" ~slots:1 ~mem:(mib 256) ~config:Config.k ())
    with
    | Ok _ -> ()
    | Error e -> failwith e
  done;
  let interval = 0.01 in
  Engine.spawn mh.Multihost.engine (fun () ->
      for _ = 1 to ticks do
        Engine.sleep interval;
        Fleet.sample fleet
      done);
  Engine.run_until mh.Multihost.engine
    ((float_of_int ticks +. 1.0) *. interval)

(* Sharded-runtime synchronization: 8 shards on a gossip ring (1 ms
   lookahead), each with a dense ticker and a per-round cross-shard
   send, advanced through [rounds] conservative barrier rounds.  Pins
   the cost of the horizon protocol itself — delivery sweeps, the
   min-next-event fold, and (in the -4d variant) the domain barrier on
   top.  The two entries measure the identical simulation, so their
   ratio is the parallel-runtime overhead/speedup on this machine. *)
let shard_sync ?ndomains rounds () =
  let shards = 8 in
  let until = float_of_int rounds *. 1e-3 in
  let w = Shard.create ~shards () in
  let edges =
    Array.init shards (fun i ->
        Shard.connect w ~src:i ~dst:((i + 1) mod shards) ~latency:1e-3 ())
  in
  for i = 0 to shards - 1 do
    let e = Shard.engine w i in
    Engine.spawn e (fun () ->
        while Engine.time () < until do
          Engine.sleep 5e-5
        done);
    Engine.spawn e (fun () ->
        while Engine.time () < until do
          Engine.sleep 1e-3;
          ignore (Shard.try_send edges.(i) (fun () -> ()))
        done)
  done;
  Shard.run ?ndomains w ~until ()

(* One recovery-drain cell: a replicated cluster loses OSD 0, absorbs a
   backlog of missed writes while it is down, then heals with the
   aggressive paced drain — peering, pacer token grants, chunked
   survivor-read/target-write transfers and east-west network hops.
   Pins the cost of the self-healing control and data path. *)
let recovery_drain () =
  let open Danaus_ceph in
  let tb = Testbed.create ~seed:1 ~activated:4 ~replicas:2 () in
  let cluster = tb.Testbed.cluster in
  (* 256 KiB chunks (instead of the aggressive 4 MiB) so the drain is
     dominated by per-chunk pace/read/transfer/write cycles, not setup *)
  let recovery =
    {
      Recovery.chunk = 256 * 1024;
      rate = 8e9;
      burst = 16.0 *. 1024.0 *. 1024.0;
      streams = 8;
      priority = Recovery.Recovery_first;
    }
  in
  Cluster.enable_monitor ~heartbeat:0.5 ~grace:1.0 ~op_timeout:0.25 ~recovery
    cluster;
  let osds = Cluster.osds cluster in
  let healed = ref false in
  Engine.spawn tb.Testbed.engine (fun () ->
      Osd.set_up osds.(0) false;
      (* let the monitor mark it down so the writes miss cleanly *)
      Engine.sleep 1.6;
      (match Cluster.write_range cluster ~ino:11 ~off:0 ~len:(256 * mib 4) with
      | Ok () -> ()
      | Error _ -> failwith "bench write failed");
      Osd.set_up osds.(0) true;
      while
        Cluster.degraded_now cluster > 0
        || Cluster.recovering cluster 0
        || not (Cluster.monitor_sees_up cluster 0)
      do
        Engine.sleep 0.25
      done;
      healed := true);
  Testbed.drive tb ~stop:(fun () -> !healed)

(* ------------------------------------------------------------------ *)

let run ?(label = "head") ?(meta = []) () =
  (* best of three, for the same reason as [measure] *)
  let calibration =
    Float.max (calibrate ()) (Float.max (calibrate ()) (calibrate ()))
  in
  let entries =
    [
      measure "engine-cycle" (engine_cycle 500_000);
      measure "engine-sleep" (engine_sleep 300_000);
      measure "engine-fork" (engine_fork 100_000);
      measure "mutex-handoff" (mutex_handoff 16 2_000);
      measure "page-cache" (page_cache_churn 400);
      measure "sched-tick" (sched_tick 5_000);
      measure "shard-sync" (shard_sync ~ndomains:1 2_000);
      measure "shard-sync-4d" (shard_sync ~ndomains:4 2_000);
      measure "seqio" seqio_cell;
      measure "contention" contention_cell;
      measure "recovery-drain" recovery_drain;
      measure "inode-churn" (inode_churn 10_000);
    ]
  in
  { r_label = label; r_meta = meta; r_calibration = calibration; r_entries = entries }

(* ------------------------------------------------------------------ *)
(* JSON *)

let to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"schema\": %d,\n  \"label\": %S,\n" schema_version
       r.r_label);
  if r.r_meta <> [] then begin
    Buffer.add_string buf "  \"meta\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Printf.sprintf "%S: %S" k v))
      r.r_meta;
    Buffer.add_string buf "},\n"
  end;
  Buffer.add_string buf
    (Printf.sprintf "  \"calibration_ops_per_sec\": %.6g,\n" r.r_calibration);
  Buffer.add_string buf "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"wall_s\": %.6g, \"events\": %d, \
            \"minor_words\": %.6g, \"events_per_sec\": %.6g, \
            \"words_per_event\": %.6g}%s\n"
           e.e_name e.e_wall_s e.e_events e.e_minor_words e.e_events_per_sec
           e.e_words_per_event
           (if i = List.length r.r_entries - 1 then "" else ",")))
    r.r_entries;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* Minimal JSON reader for the schema above (no external deps).  Parses
   the generic JSON data model; lookup helpers then pick out the fields
   the gate needs, so field order in the file does not matter. *)
module Json = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  exception Bad of string

  let parse (s : string) : v =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then s.[!pos] else '\255' in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () <> c then
        raise (Bad (Printf.sprintf "expected %c at %d" c !pos));
      advance ()
    in
    let lit word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (match peek () with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'u' ->
                (* \uXXXX: keep the raw escape; labels never need it *)
                Buffer.add_string b "\\u"
            | c -> Buffer.add_char b c);
            advance ();
            go ()
        | '\255' -> raise (Bad "unterminated string")
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let is_num c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while is_num (peek ()) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> raise (Bad (Printf.sprintf "bad number at %d" start))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '{' ->
          advance ();
          skip_ws ();
          if peek () = '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> raise (Bad (Printf.sprintf "bad object at %d" !pos))
            in
            Obj (members [])
          end
      | '[' ->
          advance ();
          skip_ws ();
          if peek () = ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | ',' ->
                  advance ();
                  elems (v :: acc)
              | ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> raise (Bad (Printf.sprintf "bad array at %d" !pos))
            in
            Arr (elems [])
          end
      | '"' -> Str (parse_string ())
      | 't' -> lit "true" (Bool true)
      | 'f' -> lit "false" (Bool false)
      | 'n' -> lit "null" Null
      | _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    v

  let mem k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

  let num k o =
    match mem k o with
    | Some (Num f) -> f
    | _ -> raise (Bad ("missing number field " ^ k))

  let str k o =
    match mem k o with
    | Some (Str s) -> s
    | _ -> raise (Bad ("missing string field " ^ k))
end

let of_json text =
  let open Json in
  let v = parse text in
  let entries =
    match mem "entries" v with
    | Some (Arr es) ->
        List.map
          (fun e ->
            let events = int_of_float (num "events" e) in
            {
              e_name = str "name" e;
              e_wall_s = num "wall_s" e;
              e_events = events;
              e_minor_words = num "minor_words" e;
              e_events_per_sec = num "events_per_sec" e;
              e_words_per_event = num "words_per_event" e;
            })
          es
    | _ -> raise (Bad "missing entries array")
  in
  let meta =
    match mem "meta" v with
    | Some (Obj kvs) ->
        List.filter_map
          (fun (k, v) -> match v with Str s -> Some (k, s) | _ -> None)
          kvs
    | _ -> []
  in
  {
    r_label = str "label" v;
    r_meta = meta;
    r_calibration = num "calibration_ops_per_sec" v;
    r_entries = entries;
  }

(* ------------------------------------------------------------------ *)
(* Regression gate *)

(* Events/sec is machine-dependent, so the gate compares it normalized
   by each run's calibration score; words/event is exact and compared
   directly (with a half-word absolute allowance so a zero-allocation
   baseline does not turn rounding noise into a failure). *)
let gate ~baseline ~head ~tolerance =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun b ->
      match
        List.find_opt (fun h -> String.equal h.e_name b.e_name) head.r_entries
      with
      | None -> fail "%s: present in baseline but not measured" b.e_name
      | Some h ->
          let b_norm =
            if baseline.r_calibration > 0.0 then
              b.e_events_per_sec /. baseline.r_calibration
            else 0.0
          and h_norm =
            if head.r_calibration > 0.0 then
              h.e_events_per_sec /. head.r_calibration
            else 0.0
          in
          if b_norm > 0.0 && h_norm < b_norm *. (1.0 -. tolerance) then
            fail
              "%s: normalized events/sec regressed %.1f%% (baseline %.3g, \
               head %.3g ev/s at calibration %.3g vs %.3g)"
              b.e_name
              (100.0 *. (1.0 -. (h_norm /. b_norm)))
              b.e_events_per_sec h.e_events_per_sec baseline.r_calibration
              head.r_calibration;
          if
            h.e_words_per_event
            > (b.e_words_per_event *. (1.0 +. tolerance)) +. 0.5
          then
            fail "%s: minor words/event grew from %.3g to %.3g" b.e_name
              b.e_words_per_event h.e_words_per_event)
    baseline.r_entries;
  match !failures with [] -> Ok () | fs -> Error (List.rev fs)

let render r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "perf trajectory [%s] (calibration %.3g ops/s)\n" r.r_label
       r.r_calibration);
  Buffer.add_string buf
    (Printf.sprintf "%-16s %10s %12s %14s %16s\n" "bench" "wall s" "events"
       "events/sec" "minor words/ev");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-16s %10.2f %12d %14.0f %16.2f\n" e.e_name e.e_wall_s
           e.e_events e.e_events_per_sec e.e_words_per_event))
    r.r_entries;
  Buffer.contents buf
