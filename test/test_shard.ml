(* Tests for the sharded conservative-lookahead runtime: unit tests of
   the barrier protocol (arrival timing, FIFO delivery, bounded-channel
   backpressure, round accounting), a QCheck property over random
   topologies asserting the causality floor analytically (with the
   strict [shard_causality]/[shard_horizon] invariants armed by
   test_main as a second net), cross-domain digest identity via the
   fuzzer's shard oracle, and the differential harness of ISSUE 10:
   the sched/health experiments plus fleet-scale render byte-identical
   tables, metrics JSON and Chrome traces at 1, 2 and 4 domains. *)

open Danaus_sim
open Danaus_experiments

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Barrier protocol unit tests. *)

(* A message sent at [s] over an edge of latency [l] runs on the
   destination engine at exactly [s + l]. *)
let test_message_arrival () =
  let w = Shard.create ~shards:2 () in
  let e01 = Shard.connect w ~src:0 ~dst:1 ~latency:0.01 () in
  let arrival = ref nan in
  Engine.spawn (Shard.engine w 0) (fun () ->
      Engine.sleep 0.05;
      let sent = Shard.try_send e01 (fun () ->
          arrival := Engine.now (Shard.engine w 1))
      in
      check_bool "send accepted" true sent);
  Shard.run w ~until:0.2 ();
  check_float "arrival = send + latency" 0.06 !arrival;
  check_int "one message delivered" 1 (Shard.messages w);
  check_float "src clock at until" 0.2 (Engine.now (Shard.engine w 0));
  check_float "dst clock at until" 0.2 (Engine.now (Shard.engine w 1));
  check_float "lookahead is the min edge latency" 0.01 (Shard.lookahead w)

(* The bounded channel: [try_send] refuses the message past capacity,
   and the accepted ones arrive in send order (FIFO seq on the
   destination engine breaks the equal-arrival tie). *)
let test_capacity_and_fifo () =
  let w = Shard.create ~shards:2 () in
  let e = Shard.connect w ~src:0 ~dst:1 ~latency:0.01 ~capacity:2 () in
  let order = ref [] in
  let send tag = Shard.try_send e (fun () -> order := tag :: !order) in
  check_bool "first send fits" true (send 1);
  check_bool "second send fits" true (send 2);
  check_bool "third send refused at capacity" false (send 3);
  check_int "two pending" 2 (Shard.edge_pending e);
  check_int "capacity recorded" 2 (Shard.edge_capacity e);
  Shard.run w ~until:0.1 ();
  check_int "buffer drained" 0 (Shard.edge_pending e);
  check_int "two delivered" 2 (Shard.messages w);
  Alcotest.(check (list int)) "delivered in send order" [ 1; 2 ]
    (List.rev !order)

(* One shard, no edges: lookahead is infinite, so the whole run is a
   single granted round (plus the final drain round, which is not
   counted). *)
let test_single_shard_single_round () =
  let w = Shard.create ~shards:1 () in
  let hits = ref 0 in
  Engine.spawn (Shard.engine w 0) (fun () ->
      for _ = 1 to 5 do
        Engine.sleep 0.1;
        incr hits
      done);
  check_bool "no edges: infinite lookahead" true
    (Shard.lookahead w = Float.infinity);
  Shard.run w ~until:1.0 ();
  check_int "all events ran" 5 !hits;
  check_int "one granted round" 1 (Shard.rounds w);
  check_int "no cross-shard messages" 0 (Shard.messages w);
  check_bool "events accounted" true (Shard.events w >= 5)

(* Ping-pong across two shards: each delivery immediately sends back,
   so every hop needs its own round and the hop times climb by exactly
   one latency. *)
let test_ping_pong () =
  let w = Shard.create ~shards:2 () in
  let fwd = Shard.connect w ~src:0 ~dst:1 ~latency:0.01 () in
  let bwd = Shard.connect w ~src:1 ~dst:0 ~latency:0.01 () in
  let hops = ref [] in
  (* delivery closures run as raw engine callbacks (no process fiber),
     so the clock is read explicitly off the current shard's engine *)
  let rec bounce n_left here () =
    hops := Engine.now (Shard.engine w here) :: !hops;
    if n_left > 1 then begin
      let back = if here = 1 then bwd else fwd in
      check_bool "bounce accepted" true
        (Shard.try_send back (bounce (n_left - 1) (1 - here)))
    end
  in
  check_bool "first hop accepted" true (Shard.try_send fwd (bounce 10 1));
  Shard.run w ~until:1.0 ();
  let hops = List.rev !hops in
  check_int "ten hops delivered" 10 (List.length hops);
  check_int "ten messages counted" 10 (Shard.messages w);
  List.iteri
    (fun i t ->
      check_float (Printf.sprintf "hop %d at (i+1) * latency" i)
        (float_of_int (i + 1) *. 0.01)
        t)
    hops;
  check_bool "each hop costs at least one round" true (Shard.rounds w >= 10)

(* Messages still pending at [until] survive to the next [run] call. *)
let test_pending_across_runs () =
  let w = Shard.create ~shards:2 () in
  let e = Shard.connect w ~src:0 ~dst:1 ~latency:0.5 () in
  let arrival = ref nan in
  check_bool "sent at t=0" true
    (Shard.try_send e (fun () -> arrival := Engine.now (Shard.engine w 1)));
  Shard.run w ~until:0.1 ();
  check_int "delivered into the first window" 1 (Shard.messages w);
  check_bool "but runs in the second" true (Float.is_nan !arrival);
  Shard.run w ~until:1.0 ();
  check_float "arrival honoured across run calls" 0.5 !arrival

(* ------------------------------------------------------------------ *)
(* Property: on random topologies (ring + chords, random latencies,
   capacities and sender populations) no message ever runs before
   send + the world's latency floor, and never behind the destination
   clock — checked analytically here and by the strict
   [shard_causality]/[shard_horizon] invariants armed in test_main,
   which would raise out of the property.  The domain count is part of
   the random input, so the parallel barrier path is exercised too. *)

let build_random_world rng =
  let shards = 2 + Rng.int rng 3 in
  let w = Shard.create ~shards () in
  let lats = [| 5e-4; 1e-3; 2e-3 |] in
  let edges = ref [] in
  (* ring: every shard sources at least one edge *)
  for i = 0 to shards - 1 do
    let dst = (i + 1) mod shards in
    let e =
      Shard.connect w ~src:i ~dst ~latency:(Rng.pick rng lats)
        ~capacity:(4 + Rng.int rng 60) ()
    in
    edges := (i, dst, e) :: !edges
  done;
  (* up to two chords *)
  for _ = 1 to Rng.int rng 3 do
    let src = Rng.int rng shards in
    let dst = Rng.int rng shards in
    if src <> dst then begin
      let e =
        Shard.connect w ~src ~dst ~latency:(Rng.pick rng lats)
          ~capacity:(4 + Rng.int rng 60) ()
      in
      edges := (src, dst, e) :: !edges
    end
  done;
  let by_src =
    Array.init shards (fun i ->
        Array.of_list
          (List.filter_map
             (fun (s, d, e) -> if s = i then Some (d, e) else None)
             (List.rev !edges)))
  in
  (w, shards, by_src)

let prop_shard_causality =
  QCheck.Test.make ~name:"shard: causality floor on random topologies"
    ~count:25
    QCheck.(pair (int_bound 9999) (int_range 1 4))
    (fun (seed, ndomains) ->
      let rng = Rng.create (0x5AD0 + seed) in
      let w, shards, by_src = build_random_world rng in
      (* deliveries run on whichever domain owns the destination shard,
         so the tallies are shared across domains *)
      let ok = Atomic.make true in
      let delivered = Atomic.make 0 in
      for i = 0 to shards - 1 do
        let senders = 1 + Rng.int rng 2 in
        for _ = 1 to senders do
          let srng = Rng.split rng in
          let sends = 5 + Rng.int rng 20 in
          Engine.spawn (Shard.engine w i) (fun () ->
              for _ = 1 to sends do
                Engine.sleep (Rng.exponential srng ~mean:5e-3);
                let d, e = Rng.pick srng by_src.(i) in
                let sent = Engine.time () in
                let deliver () =
                  let now = Engine.now (Shard.engine w d) in
                  Atomic.incr delivered;
                  if
                    not
                      (now >= sent +. Shard.lookahead w -. 1e-12
                      && now >= sent +. Shard.edge_latency e -. 1e-12)
                  then Atomic.set ok false
                in
                while not (Shard.try_send e deliver) do
                  Engine.sleep (Shard.edge_latency e)
                done
              done)
        done
      done;
      Shard.run ~ndomains w ~until:0.3 ();
      (* flush: let every sender finish and every message arrive, so
         the executed-delivery count can be compared to the runtime's *)
      Shard.run ~ndomains w ~until:60.0 ();
      Atomic.get ok && Atomic.get delivered = Shard.messages w)

(* ------------------------------------------------------------------ *)
(* Cross-domain digest identity on the fuzzer's random shard worlds:
   every Obs dump (including every delivery timestamp) and the
   round/message/event totals match at 1, 2, 3 and 4 domains. *)

let test_digest_across_domains () =
  List.iter
    (fun seed ->
      let sc = Fuzz.generate ~quick:true seed in
      let base = Fuzz.shard_digest sc ~ndomains:1 in
      List.iter
        (fun nd ->
          check_string
            (Printf.sprintf "seed %d digest at %d domains" seed nd)
            base
            (Fuzz.shard_digest sc ~ndomains:nd))
        [ 2; 3; 4 ])
    [ 0; 1; 2; 5 ]

(* ------------------------------------------------------------------ *)
(* The differential oracle: the scheduler and health experiments plus
   fleet-scale, run in-process at --domains 1, 2 and 4 (via
   [Shard.default_domains], exactly what the CLI flag sets), must
   produce byte-identical rendered tables, metrics JSON and Chrome
   trace exports.  Tracing is forced on so the trace leg compares real
   span stores, and restored afterwards. *)

let diff_ids = [ "sched-policy"; "sched-drain"; "autoscale"; "slo-burn"; "fleet-scale" ]

let run_at ~domains =
  let saved_domains = !Shard.default_domains in
  let saved_tracing = !Obs.default_tracing in
  Shard.default_domains := domains;
  Obs.default_tracing := true;
  Fun.protect
    ~finally:(fun () ->
      Shard.default_domains := saved_domains;
      Obs.default_tracing := saved_tracing)
    (fun () ->
      List.concat_map
        (fun id ->
          match Registry.find id with
          | None -> Alcotest.failf "experiment %s not registered" id
          | Some e -> e.Registry.run ~quick:true ~seed:7)
        diff_ids)

let test_differential_domains () =
  let render reports = String.concat "\n" (List.map Report.render reports) in
  let base = run_at ~domains:1 in
  let base_render = render base in
  let base_metrics = Report.metrics_json base in
  let base_trace = Trace_export.chrome_json base in
  check_bool "base run is non-trivial" true (String.length base_render > 500);
  List.iter
    (fun d ->
      let reports = run_at ~domains:d in
      check_string (Printf.sprintf "tables identical at %d domains" d)
        base_render (render reports);
      check_string (Printf.sprintf "metrics JSON identical at %d domains" d)
        base_metrics
        (Report.metrics_json reports);
      check_string (Printf.sprintf "chrome trace identical at %d domains" d)
        base_trace
        (Trace_export.chrome_json reports))
    [ 2; 4 ]

let suite =
  let tc = Alcotest.test_case in
  [
    ( "shard.protocol",
      [
        tc "arrival = send + latency" `Quick test_message_arrival;
        tc "bounded channel refuses past capacity, FIFO order" `Quick
          test_capacity_and_fifo;
        tc "single shard runs in one granted round" `Quick
          test_single_shard_single_round;
        tc "ping-pong advances one latency per hop" `Quick test_ping_pong;
        tc "pending messages survive across run calls" `Quick
          test_pending_across_runs;
      ] );
    ( "shard.properties",
      [
        QCheck_alcotest.to_alcotest prop_shard_causality;
        tc "fuzz digests identical at 1..4 domains" `Slow
          test_digest_across_domains;
      ] );
    ( "shard.differential",
      [
        tc "experiments byte-identical at 1/2/4 domains" `Slow
          test_differential_domains;
      ] );
  ]
