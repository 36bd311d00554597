(* Tests for the fleet health layer: the streaming quantile sketch
   against the exact Stats oracle (rank error, merge associativity,
   determinism), the Obs histogram backings, the SLO burn-rate engine
   (fire/clear hysteresis, the no-demand rule), the fleet rollup, the
   OpenMetrics exporter, the run-report extraction, the recovery-pacer
   health gate, and zero-cost of the per-pool health tap when off. *)

open Danaus_sim
open Danaus_kernel
open Danaus_ceph
open Danaus
open Danaus_health
open Danaus_experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mib n = n * 1024 * 1024

let ok what = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: %s" what (Danaus_client.Client_intf.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Sketch vs the exact Stats oracle *)

let percentiles = [ 1.0; 5.0; 25.0; 50.0; 75.0; 90.0; 95.0; 99.0; 99.9 ]

(* Rank error of the sketch's reported value: distance (in ranks)
   between the target rank and the span of ranks the value actually
   occupies in the sorted sample; must stay within 1% of n. *)
let assert_rank_error ~name xs =
  let n = Array.length xs in
  let sk = Sketch.create () in
  Array.iter (Sketch.add sk) xs;
  check_int (name ^ ": count") n (Sketch.count sk);
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  List.iter
    (fun p ->
      let v = Sketch.percentile sk p in
      let below = ref 0 and at_or_below = ref 0 in
      Array.iter
        (fun x ->
          if x < v then incr below;
          if x <= v then incr at_or_below)
        sorted;
      let target = p /. 100.0 *. float_of_int (n - 1) in
      let err =
        if target < float_of_int !below then float_of_int !below -. target
        else if target > float_of_int !at_or_below then
          target -. float_of_int !at_or_below
        else 0.0
      in
      if err > 0.01 *. float_of_int n then
        Alcotest.failf "%s p%g: rank error %.1f > %.1f (value %g)" name p err
          (0.01 *. float_of_int n) v)
    percentiles

let n_samples = 20_000

let test_sketch_rank_error_random () =
  let st = Random.State.make [| 0xD5; 1 |] in
  assert_rank_error ~name:"uniform"
    (Array.init n_samples (fun _ -> Random.State.float st 1000.0))

let test_sketch_rank_error_sorted () =
  (* monotone input: every value distinct, added in order *)
  assert_rank_error ~name:"sorted"
    (Array.init n_samples (fun i -> 1e-4 *. float_of_int (i + 1)))

let test_sketch_rank_error_bimodal () =
  let st = Random.State.make [| 0xD5; 2 |] in
  assert_rank_error ~name:"bimodal"
    (Array.init n_samples (fun _ ->
         if Random.State.bool st then 1e-3 +. Random.State.float st 1e-3
         else 0.1 +. Random.State.float st 0.1))

let test_sketch_rank_error_heavy_tail () =
  (* Pareto-ish: latency floor 1 ms, alpha 1.2 *)
  let st = Random.State.make [| 0xD5; 3 |] in
  assert_rank_error ~name:"heavy-tail"
    (Array.init n_samples (fun _ ->
         let u = 1.0 -. Random.State.float st 0.9999 in
         1e-3 *. (u ** (-1.0 /. 1.2))))

let digest sk =
  ( Sketch.count sk,
    Sketch.total sk,
    Sketch.min sk,
    Sketch.max sk,
    List.map (Sketch.percentile sk) [ 0.0; 10.0; 50.0; 90.0; 99.0; 100.0 ] )

let test_sketch_merge_associative () =
  let st = Random.State.make [| 0xD5; 4 |] in
  let part scale =
    let sk = Sketch.create () in
    for _ = 1 to 3000 do
      Sketch.add sk (scale *. Random.State.float st 1.0)
    done;
    sk
  in
  let a = part 1.0 and b = part 10.0 and c = part 0.01 in
  let ab_c =
    let d = Sketch.copy a in
    Sketch.merge_into ~dst:d ~src:b;
    Sketch.merge_into ~dst:d ~src:c;
    d
  in
  let a_bc =
    let d = Sketch.copy b in
    Sketch.merge_into ~dst:d ~src:c;
    let e = Sketch.copy a in
    Sketch.merge_into ~dst:e ~src:d;
    e
  in
  check_bool "(a+b)+c = a+(b+c)" true (digest ab_c = digest a_bc);
  check_int "merged count" 9000 (Sketch.count ab_c);
  (* mismatched accuracy refuses to merge *)
  let other = Sketch.create ~accuracy:0.01 () in
  check_bool "mismatched accuracy raises" true
    (try
       Sketch.merge_into ~dst:other ~src:a;
       false
     with Invalid_argument _ -> true)

let test_sketch_determinism () =
  let build () =
    let st = Random.State.make [| 0xD5; 5 |] in
    let sk = Sketch.create () in
    for _ = 1 to 5000 do
      Sketch.add sk (Random.State.float st 100.0)
    done;
    sk
  in
  let a = build () and b = build () in
  check_bool "identical streams, identical digests" true (digest a = digest b);
  check_int "identical bins" (Sketch.bins a) (Sketch.bins b)

let test_sketch_count_above () =
  let st = Random.State.make [| 0xD5; 6 |] in
  let sk = Sketch.create () and exact = Stats.create () in
  for _ = 1 to 10_000 do
    let x = Random.State.float st 1000.0 in
    Sketch.add sk x;
    Stats.add exact x
  done;
  let approx = Sketch.count_above sk 500.0 in
  let truth = Stats.count_above exact 500.0 in
  check_bool
    (Printf.sprintf "count_above within 1.5%% of oracle (%d vs %d)" approx truth)
    true
    (abs (approx - truth) <= 150)

(* [sk] answers as a fresh sketch fed [values] in order would. *)
let same_as what sk values =
  let fresh = Sketch.create () in
  List.iter (Sketch.add fresh) values;
  check_int (what ^ " count") (Sketch.count fresh) (Sketch.count sk);
  check_bool (what ^ " total") true (Float.equal (Sketch.total fresh) (Sketch.total sk));
  check_bool (what ^ " max") true (Float.equal (Sketch.max fresh) (Sketch.max sk));
  for p = 0 to 100 do
    let p = float_of_int p in
    check_bool (what ^ " percentiles") true
      (Float.equal (Sketch.percentile fresh p) (Sketch.percentile sk p))
  done

(* [Sketch.add] memoises the last magnitude's bucket.  Collapsing the
   lowest buckets leaves every sample in bucket [max idx (hi - max_bins
   + 1)] whatever the order, so one multiset fed grouped by value
   (mostly memo hits) and in a shuffle (mostly misses) must give the
   same sketch: runs of repeated atoms, fresh values, negatives and
   zeros, once with [max_bins = 16] so the wide spread collapses (the
   top atoms stay above the collapse) and once with the default, where
   nothing collapses. *)
let test_sketch_memo_order_free () =
  let st = Random.State.make [| 0xD5; 8 |] in
  let xs =
    Array.concat
      [
        Array.make 300 0.5e-6;
        Array.make 200 2e-6;
        Array.make 100 3.25;
        Array.make 150 400.0;
        Array.make 120 401.5;
        Array.init 400 (fun _ -> Float.exp (Random.State.float st 20.0 -. 14.0));
        Array.make 50 (-3.0);
        Array.init 80 (fun _ -> -.Random.State.float st 100.0);
        Array.make 40 0.0;
        Array.make 10 1e-13;
      ]
  in
  let grouped = Array.copy xs in
  Array.sort Float.compare grouped;
  let shuffled = Array.copy xs in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- t
  done;
  List.iter
    (fun max_bins ->
      let feed xs =
        let sk = Sketch.create ~max_bins () in
        Array.iter (Sketch.add sk) xs;
        sk
      in
      let a = feed grouped and b = feed shuffled in
      check_int "count" (Sketch.count a) (Sketch.count b);
      check_bool "min" true (Float.equal (Sketch.min a) (Sketch.min b));
      check_bool "max" true (Float.equal (Sketch.max a) (Sketch.max b));
      for p = 0 to 100 do
        let pa = Sketch.percentile a (float_of_int p)
        and pb = Sketch.percentile b (float_of_int p) in
        check_bool
          (Printf.sprintf "max_bins %d: p%d (%g vs %g)" max_bins p pa pb)
          true (Float.equal pa pb)
      done)
    [ 16; 4096 ];
  (* a copy owns its state (memo and running floats):
     adding to one leaves the other as a fresh sketch fed the same
     values would be *)
  List.iter
    (fun before ->
      let orig = Sketch.create () in
      List.iter (Sketch.add orig) before;
      let c = Sketch.copy orig in
      Sketch.add c 1000.0;
      Sketch.add orig 7.0;
      Sketch.add orig 1000.0;
      same_as "original" orig (before @ [ 7.0; 1000.0 ]);
      same_as "copy" c (before @ [ 1000.0 ]))
    [ [ 1.0 ]; List.init 200 (fun i -> 1.0 +. float_of_int (i mod 3)) ]

(* ------------------------------------------------------------------ *)
(* Obs histogram backings *)

let test_obs_backing_both_differential () =
  let obs = Obs.create () in
  let h = Obs.histogram ~backing:Obs.Both obs ~layer:"t" ~name:"lat" ~key:"k" in
  let st = Random.State.make [| 0xD5; 7 |] in
  for _ = 1 to 5000 do
    Obs.observe h (1e-3 +. Random.State.float st 0.1)
  done;
  let exact = Obs.hist_stats h in
  let sk =
    match Obs.hist_sketch h with
    | Some s -> s
    | None -> Alcotest.fail "Both backing carries no sketch"
  in
  check_int "same count" (Stats.count exact) (Sketch.count sk);
  check_bool "same total" true
    (abs_float (Stats.total exact -. Sketch.total sk)
    < 1e-9 *. Stats.total exact);
  List.iter
    (fun p ->
      let e = Stats.percentile exact p and s = Sketch.percentile sk p in
      check_bool
        (Printf.sprintf "p%g within 2%% (exact %g, sketch %g)" p e s)
        true
        (abs_float (s -. e) <= 0.02 *. e))
    [ 50.0; 95.0; 99.0 ]

let test_obs_backing_sketch_only () =
  let obs = Obs.create () in
  let h = Obs.histogram ~backing:Obs.Sketch obs ~layer:"t" ~name:"lat" ~key:"k" in
  for i = 1 to 100 do
    Obs.observe h (float_of_int i)
  done;
  check_bool "hist_stats refuses a sketch-only cell" true
    (try
       ignore (Obs.hist_stats h : Stats.t);
       false
     with Invalid_argument _ -> true);
  check_bool "sketch present" true (Obs.hist_sketch h <> None);
  check_bool "get returns the total" true
    (abs_float (Obs.get obs ~layer:"t" ~name:"lat" ~key:"k" -. 5050.0) < 1e-6);
  match Obs.hist_summary obs ~layer:"t" ~name:"lat" ~key:"k" with
  | None -> Alcotest.fail "no summary for sketch-backed cell"
  | Some s ->
      check_int "summary count" 100 s.Obs.h_count;
      check_bool "summary p50 near 50" true
        (abs_float (s.Obs.h_p50 -. 50.0) <= 2.0)

(* ------------------------------------------------------------------ *)
(* SLO engine *)

let tight_config =
  {
    Slo.fast_window = 2.0;
    slow_window = 4.0;
    fire_burn = 2.0;
    clear_burn = 1.0;
    clear_ticks = 3;
  }

(* One ratio objective (budget 0.1) over two mutable counters; [step]
   advances the counters then ticks the engine and the sampler. *)
let make_slo () =
  let obs = Obs.create () in
  let total = ref 0.0 and bad = ref 0.0 in
  let slo = Slo.create ~config:tight_config obs in
  Slo.add slo
    (Slo.ratio ~name:"err" ~key:"p0" ~budget:0.1
       ~total:(fun () -> !total)
       ~bad:(fun () -> !bad)
       ());
  let smp = Obs.Sampler.create obs ~period:1.0 in
  let step t dt db =
    total := !total +. dt;
    bad := !bad +. db;
    Slo.tick slo ~now:t;
    Obs.Sampler.tick smp ~now:t
  in
  (obs, slo, smp, step)

let the_status slo =
  match Slo.status slo with
  | [ st ] -> st
  | l -> Alcotest.failf "expected 1 status entry, got %d" (List.length l)

let test_slo_fire_and_clear () =
  let obs, slo, _smp, step = make_slo () in
  step 0.0 0.0 0.0;
  for t = 1 to 4 do
    step (float_of_int t) 100.0 100.0
  done;
  let st = the_status slo in
  check_bool "firing during the storm" true st.Slo.st_firing;
  check_int "fired once" 1 st.Slo.st_fired;
  check_bool "first fire at t=1" true (st.Slo.st_first_fire = 1.0);
  check_bool "peak fast burn ~10" true (st.Slo.st_peak_fast > 9.9);
  check_bool "alerting gauge up" true
    (Obs.get obs ~layer:"health" ~name:"alerting" ~key:"p0:err" = 1.0);
  check_bool "rollup sees the fire" true (not (Rollup.healthy obs));
  let v = Rollup.view obs in
  check_int "one key, one firing" 1 v.Rollup.v_firing;
  check_bool "worst burn reported" true (v.Rollup.v_worst_burn > 1.0);
  for t = 5 to 12 do
    step (float_of_int t) 100.0 0.0
  done;
  let st = the_status slo in
  check_bool "cleared after calm ticks" true (not st.Slo.st_firing);
  check_int "cleared once" 1 st.Slo.st_cleared;
  check_bool "rollup healthy again" true (Rollup.healthy obs);
  (match Slo.events slo with
  | [ fire; clear ] ->
      check_bool "fire event" true fire.Slo.ev_fire;
      check_bool "clear event" true (not clear.Slo.ev_fire);
      check_bool "chronological" true (fire.Slo.ev_at < clear.Slo.ev_at)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  check_bool "alerts_fired cell" true
    (Obs.get obs ~layer:"health" ~name:"alerts_fired" ~key:"p0:err" = 1.0);
  check_bool "alerts_cleared cell" true
    (Obs.get obs ~layer:"health" ~name:"alerts_cleared" ~key:"p0:err" = 1.0);
  Rollup.publish obs (Rollup.view obs);
  check_bool "published fleet gauge" true
    (Obs.get obs ~layer:"health" ~name:"fleet_keys" ~key:"fleet" = 1.0)

let test_slo_no_demand_is_not_an_outage () =
  let _obs, slo, _smp, step = make_slo () in
  step 0.0 0.0 0.0;
  (* the counters never advance: an idle pool must stay green *)
  for t = 1 to 10 do
    step (float_of_int t) 0.0 0.0
  done;
  let st = the_status slo in
  check_bool "never fired" true (not st.Slo.st_firing);
  check_int "no fires" 0 st.Slo.st_fired;
  check_bool "burn stayed 0" true (st.Slo.st_peak_fast = 0.0)

let test_slo_rate_floor_no_demand () =
  let obs = Obs.create () in
  let offered = ref 0.0 and served = ref 0.0 in
  let slo = Slo.create ~config:tight_config obs in
  Slo.add slo
    (Slo.rate_floor ~name:"goodput" ~key:"p0" ~budget:0.25 ~min_rate:10.0
       ~offered:(fun () -> !offered)
       ~served:(fun () -> !served)
       ());
  let step t d_off d_srv =
    offered := !offered +. d_off;
    served := !served +. d_srv;
    Slo.tick slo ~now:t
  in
  step 0.0 0.0 0.0;
  (* demand with zero completions: burns and fires *)
  for t = 1 to 4 do
    step (float_of_int t) 100.0 0.0
  done;
  check_bool "starved pool fires" true (the_status slo).Slo.st_firing;
  (* demand stops entirely: burn must drop to 0 and the alert clears *)
  for t = 5 to 12 do
    step (float_of_int t) 0.0 0.0
  done;
  let st = the_status slo in
  check_bool "idle pool clears" true (not st.Slo.st_firing);
  check_int "cleared once" 1 st.Slo.st_cleared

let test_slo_clear_hysteresis () =
  let _obs, slo, _smp, step = make_slo () in
  step 0.0 0.0 0.0;
  for t = 1 to 4 do
    step (float_of_int t) 100.0 100.0
  done;
  check_int "fired once" 1 (the_status slo).Slo.st_fired;
  (* two calm-ish ticks, then a blip (fast burn back over clear_burn but
     under fire_burn) resets the consecutive-calm counter *)
  step 5.0 100.0 0.0;
  step 6.0 100.0 0.0;
  step 7.0 100.0 30.0;
  check_bool "blip keeps the alert held" true (the_status slo).Slo.st_firing;
  step 8.0 100.0 0.0;
  step 9.0 100.0 0.0;
  step 10.0 100.0 0.0;
  check_bool "still firing before 3 consecutive calm ticks" true
    (the_status slo).Slo.st_firing;
  step 11.0 100.0 0.0;
  let st = the_status slo in
  check_bool "cleared after 3 calm ticks" true (not st.Slo.st_firing);
  check_int "exactly one fire" 1 st.Slo.st_fired;
  check_int "exactly one clear" 1 st.Slo.st_cleared

(* ------------------------------------------------------------------ *)
(* Exporter *)

let test_openmetrics_round_trip () =
  let obs = Obs.create () in
  let c = Obs.counter obs ~layer:"core" ~name:"ops" ~key:"p0" in
  Obs.add c 42.0;
  let g = Obs.gauge obs ~layer:"health" ~name:"alerting" ~key:"p0:err" in
  Obs.set g 1.0;
  let h =
    Obs.histogram ~backing:Obs.Both obs ~layer:"core" ~name:"op_latency"
      ~key:"p0"
  in
  List.iter (Obs.observe h) [ 0.001; 0.002; 0.004; 0.1 ];
  let text =
    Exporter.openmetrics ~labels:[ ("run", "test") ] (Obs.snapshot obs)
  in
  (match Exporter.validate text with
  | Ok () -> ()
  | Error line -> Alcotest.failf "invalid exposition at: %s" line);
  let has affix = Astring.String.is_infix ~affix text in
  check_bool "counter family with _total" true (has "danaus_core_ops_total");
  check_bool "gauge family" true (has "danaus_health_alerting");
  check_bool "histogram quantiles" true (has "quantile=");
  check_bool "extra labels stamped" true (has "run=\"test\"");
  check_bool "EOF terminator" true (has "# EOF")

let test_openmetrics_validate_rejects () =
  check_bool "garbage rejected" true
    (Exporter.validate "!! not a metric\n# EOF\n" |> Result.is_error);
  check_bool "missing EOF rejected" true
    (Exporter.validate "danaus_core_ops_total{key=\"a\"} 1\n"
    |> Result.is_error)

(* ------------------------------------------------------------------ *)
(* Run report extraction *)

let test_run_report_slo_and_timeline () =
  let obs, _slo, smp, step = make_slo () in
  step 0.0 0.0 0.0;
  for t = 1 to 4 do
    step (float_of_int t) 100.0 100.0
  done;
  for t = 5 to 12 do
    step (float_of_int t) 100.0 0.0
  done;
  let r =
    Report.make ~id:"t" ~title:"test cell" ~header:[ "col" ]
      ~metrics:(Obs.snapshot obs)
      ~timeseries:(Obs.Sampler.points smp)
      [ [ "1" ] ]
  in
  (match Run_report.slo_rows r with
  | [ row ] ->
      check_bool "key" true (row.Run_report.sr_key = "p0:err");
      check_bool "fired" true (row.Run_report.sr_fired = 1.0);
      check_bool "cleared" true (row.Run_report.sr_cleared = 1.0);
      check_bool "not firing at the end" true (not row.Run_report.sr_firing)
  | l -> Alcotest.failf "expected 1 slo row, got %d" (List.length l));
  (match Run_report.alert_timeline r with
  | [ fire; clear ] ->
      check_bool "fire first" true fire.Run_report.ae_fire;
      check_bool "fire at t=1" true (fire.Run_report.ae_time = 1.0);
      check_bool "then clear" true (not clear.Run_report.ae_fire);
      check_bool "clear later" true
        (clear.Run_report.ae_time > fire.Run_report.ae_time)
  | l -> Alcotest.failf "expected 2 timeline events, got %d" (List.length l));
  let md = Run_report.markdown ~title:"unit" [ r ] in
  let has affix = Astring.String.is_infix ~affix md in
  check_bool "verdict section" true (has "SLO verdicts");
  check_bool "timeline section" true (has "Alert timeline");
  let js = Run_report.json ~title:"unit" [ r ] in
  check_bool "json slo block" true (Astring.String.is_infix ~affix:"\"slo\"" js);
  check_bool "json alerts block" true
    (Astring.String.is_infix ~affix:"\"alerts\"" js)

(* ------------------------------------------------------------------ *)
(* Recovery pacer health gate *)

let test_recovery_gate_holds_transfers () =
  let e = Engine.create () in
  let p = Recovery.pacer e (Recovery.throttled ()) in
  let gate_open = ref false in
  Recovery.set_gate p (Some (fun () -> !gate_open));
  let finished = ref Float.nan in
  Engine.spawn e ~name:"xfer" (fun () ->
      Recovery.pace p ~bytes:(256 * 1024);
      finished := Engine.time ());
  Engine.spawn e ~name:"gate" (fun () ->
      Engine.sleep 1.0;
      gate_open := true);
  Engine.run e;
  check_bool "transfer completed after the gate opened" true
    ((not (Float.is_nan !finished)) && !finished >= 1.0);
  check_bool "held time accounted" true
    (Recovery.held_seconds p >= 0.5 && Recovery.held_seconds p <= 2.0)

let test_recovery_gate_absent_is_free () =
  let e = Engine.create () in
  let p = Recovery.pacer e (Recovery.throttled ()) in
  let finished = ref Float.nan in
  Engine.spawn e ~name:"xfer" (fun () ->
      Recovery.pace p ~bytes:(256 * 1024);
      finished := Engine.time ());
  Engine.run e;
  check_bool "ungated transfer completes" true (not (Float.is_nan !finished));
  check_bool "nothing held" true (Recovery.held_seconds p = 0.0)

(* ------------------------------------------------------------------ *)
(* Container-engine health tap *)

let run_small_io tb ct pool =
  let done_ = ref false in
  Engine.spawn tb.Testbed.engine ~name:"io" (fun () ->
      (* the health tap wraps the per-thread view, not the raw union
         instance *)
      let iface = ct.Container_engine.view ~thread:1 in
      let fd =
        ok "open"
          (iface.Danaus_client.Client_intf.open_file ~pool "/f"
             Danaus_client.Client_intf.flags_wo)
      in
      for i = 0 to 7 do
        ok "write"
          (iface.Danaus_client.Client_intf.write ~pool fd ~off:(i * 65536)
             ~len:65536)
      done;
      ok "fsync" (iface.Danaus_client.Client_intf.fsync ~pool fd);
      (* close is infallible and deliberately untapped: 10 calls total *)
      iface.Danaus_client.Client_intf.close ~pool fd;
      done_ := true);
  Testbed.drive tb ~stop:(fun () -> !done_)

let core_samples obs =
  List.filter (fun s -> s.Obs.s_layer = "core") (Obs.snapshot obs)

let test_health_tap_off_is_zero_cost () =
  check_bool "health defaults off" true (not !Container_engine.default_health);
  let tb = Testbed.create ~activated:4 () in
  let pool = Testbed.pool tb 0 in
  let ct =
    Container_engine.launch tb.Testbed.containers ~config:Config.d ~pool
      ~id:"ct0" ~cache_bytes:(mib 64) ()
  in
  run_small_io tb ct pool;
  check_int "no core/* cells without the tap" 0
    (List.length (core_samples tb.Testbed.obs))

let test_health_tap_on_counts_calls () =
  let tb = Testbed.create ~activated:4 () in
  let pool = Testbed.pool tb 0 in
  let ct =
    Container_engine.launch tb.Testbed.containers ~config:Config.d ~pool
      ~id:"ct0" ~cache_bytes:(mib 64) ~health:true ()
  in
  run_small_io tb ct pool;
  let obs = tb.Testbed.obs in
  let key = Cgroup.name pool in
  let ops = Obs.get obs ~layer:"core" ~name:"ops" ~key in
  (* open + 8 writes + close *)
  check_bool "client calls counted" true (ops >= 10.0);
  check_bool "started covers completed" true
    (Obs.get obs ~layer:"core" ~name:"ops_started" ~key >= ops);
  check_bool "no errors" true
    (Obs.get obs ~layer:"core" ~name:"op_errors" ~key = 0.0);
  match Obs.hist_summary obs ~layer:"core" ~name:"op_latency" ~key with
  | None -> Alcotest.fail "no op_latency histogram"
  | Some s -> check_bool "latency observations" true (s.Obs.h_count >= 10)

(* ------------------------------------------------------------------ *)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "health.sketch",
      [
        tc "rank error vs oracle: uniform" `Quick test_sketch_rank_error_random;
        tc "rank error vs oracle: sorted" `Quick test_sketch_rank_error_sorted;
        tc "rank error vs oracle: bimodal" `Quick
          test_sketch_rank_error_bimodal;
        tc "rank error vs oracle: heavy tail" `Quick
          test_sketch_rank_error_heavy_tail;
        tc "merge is associative" `Quick test_sketch_merge_associative;
        tc "deterministic digests" `Quick test_sketch_determinism;
        tc "count_above tracks the oracle" `Quick test_sketch_count_above;
        tc "memoised add is order-free" `Quick test_sketch_memo_order_free;
      ] );
    ( "health.obs",
      [
        tc "Both backing: sketch matches exact store" `Quick
          test_obs_backing_both_differential;
        tc "Sketch backing: summaries without samples" `Quick
          test_obs_backing_sketch_only;
      ] );
    ( "health.slo",
      [
        tc "fires on burn, clears on calm" `Quick test_slo_fire_and_clear;
        tc "no demand is not an outage" `Quick
          test_slo_no_demand_is_not_an_outage;
        tc "rate floor ignores idle pools" `Quick test_slo_rate_floor_no_demand;
        tc "clear hysteresis needs consecutive calm" `Quick
          test_slo_clear_hysteresis;
      ] );
    ( "health.exporter",
      [
        tc "openmetrics renders and validates" `Quick
          test_openmetrics_round_trip;
        tc "validate rejects malformed payloads" `Quick
          test_openmetrics_validate_rejects;
      ] );
    ( "health.report",
      [
        tc "slo rows and alert timeline" `Quick
          test_run_report_slo_and_timeline;
      ] );
    ( "health.recovery-gate",
      [
        tc "gate holds paced transfers" `Quick
          test_recovery_gate_holds_transfers;
        tc "no gate, no hold" `Quick test_recovery_gate_absent_is_free;
      ] );
    ( "health.tap",
      [
        tc "off: zero cells, zero cost" `Quick test_health_tap_off_is_zero_cost;
        tc "on: client calls and latency counted" `Quick
          test_health_tap_on_counts_calls;
      ] );
  ]
