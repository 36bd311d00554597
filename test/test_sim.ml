(* Unit and property tests for the discrete-event engine and its
   synchronisation primitives. *)

open Danaus_sim

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_sleep_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.sleep 2.0;
      log := ("b", Engine.time ()) :: !log);
  Engine.spawn e (fun () ->
      Engine.sleep 1.0;
      log := ("a", Engine.time ()) :: !log);
  Engine.run e;
  match List.rev !log with
  | [ ("a", t1); ("b", t2) ] ->
      check_float "first wake" 1.0 t1;
      check_float "second wake" 2.0 t2
  | _ -> Alcotest.fail "wrong ordering"

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.spawn e (fun () ->
        Engine.sleep 1.0;
        log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_nested_fork () =
  let e = Engine.create () in
  let sum = ref 0 in
  Engine.spawn e (fun () ->
      Engine.fork (fun () ->
          Engine.sleep 1.0;
          sum := !sum + 1);
      Engine.fork (fun () ->
          Engine.sleep 2.0;
          sum := !sum + 10);
      Engine.sleep 3.0;
      sum := !sum + 100);
  Engine.run e;
  check_int "all processes ran" 111 !sum;
  check_float "clock at last event" 3.0 (Engine.now e);
  check_int "no live process" 0 (Engine.live_processes e)

let test_run_until () =
  let e = Engine.create () in
  let hits = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 10 do
        Engine.sleep 1.0;
        incr hits
      done);
  Engine.run_until e 4.5;
  check_int "only events before horizon" 4 !hits;
  check_float "clock set to horizon" 4.5 (Engine.now e);
  Engine.run e;
  check_int "remaining events run" 10 !hits

let test_deadlock_detection () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> Engine.suspend (fun _wake -> ()));
  Alcotest.check_raises "deadlock raised"
    (Engine.Deadlock "1 process(es) blocked forever") (fun () -> Engine.run e)

let test_suspend_wake_once () =
  let e = Engine.create () in
  let wake_cell = ref (fun () -> ()) in
  let resumed = ref 0 in
  Engine.spawn e (fun () ->
      Engine.suspend (fun wake -> wake_cell := wake);
      incr resumed);
  Engine.spawn e (fun () ->
      Engine.sleep 1.0;
      !wake_cell ();
      !wake_cell () (* second wake must be ignored *));
  Engine.run e;
  check_int "resumed exactly once" 1 !resumed

let test_schedule_callback () =
  let e = Engine.create () in
  let fired = ref (-1.0) in
  Engine.schedule e ~delay:5.0 (fun () -> fired := Engine.now e);
  Engine.run e;
  check_float "callback time" 5.0 !fired

let test_self_name () =
  let e = Engine.create () in
  let seen = ref "" in
  Engine.spawn e ~name:"worker-7" (fun () -> seen := Engine.self_name ());
  Engine.run e;
  Alcotest.(check string) "self name" "worker-7" !seen

(* ------------------------------------------------------------------ *)
(* Mutex *)

let test_mutex_exclusion () =
  let e = Engine.create () in
  let m = Mutex_sim.create e ~name:"m" in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    Engine.spawn e (fun () ->
        Mutex_sim.with_lock m (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Engine.sleep 1.0;
            decr inside))
  done;
  Engine.run e;
  check_int "mutual exclusion" 1 !max_inside;
  check_float "serialised" 4.0 (Engine.now e);
  check_int "acquisitions" 4 (Mutex_sim.acquisitions m);
  check_int "contended" 3 (Mutex_sim.contended m)

let test_mutex_stats () =
  let e = Engine.create () in
  let m = Mutex_sim.create e ~name:"m" in
  for _ = 1 to 2 do
    Engine.spawn e (fun () -> Mutex_sim.with_lock m (fun () -> Engine.sleep 2.0))
  done;
  Engine.run e;
  check_float "total hold" 4.0 (Mutex_sim.total_hold m);
  check_float "total wait" 2.0 (Mutex_sim.total_wait m);
  check_float "avg hold" 2.0 (Mutex_sim.avg_hold m);
  check_float "avg wait" 1.0 (Mutex_sim.avg_wait m)

(* Lock and semaphore histograms are sketch-backed: their memory stays
   fixed however many hand-offs a run makes, while count, total and max
   stay exact.  Two workers per resource hand it back and forth, holding
   it for one of 37 durations in turn, so after the first [n] rounds no
   new bucket appears; the test shadows every wait and hold it sees. *)
let test_lock_hist_bounded_exact () =
  let e = Engine.create () in
  let m = Mutex_sim.create e ~name:"bounded.m" in
  let sem = Semaphore_sim.create ~name:"bounded.s" e ~value:1 in
  let obs = Engine.obs e in
  let cell name key = Obs.histogram obs ~layer:"sim" ~name ~key in
  let wait_h = cell "lock_wait" "bounded.m"
  and hold_h = cell "lock_hold" "bounded.m"
  and sem_h = cell "sem_wait" "bounded.s" in
  let words () =
    List.fold_left
      (fun acc h -> acc + Obj.reachable_words (Obj.repr h))
      0 [ wait_h; hold_h; sem_h ]
  in
  let hold_of i = 1e-6 *. float_of_int (1 + (i mod 37)) in
  let wait_max = ref 0.0 and hold_max = ref 0.0 in
  let sem_waits = ref 0 and sem_max = ref 0.0 in
  let mutex_worker rounds () =
    for i = 1 to rounds do
      let t0 = Engine.now e and contended = Mutex_sim.locked m in
      Mutex_sim.lock m;
      let t1 = Engine.now e in
      if contended then wait_max := Float.max !wait_max (t1 -. t0);
      Engine.sleep (hold_of i);
      hold_max := Float.max !hold_max (Engine.now e -. t1);
      Mutex_sim.unlock m
    done
  in
  let sem_worker rounds () =
    for i = 1 to rounds do
      let t0 = Engine.now e and contended = Semaphore_sim.value sem = 0 in
      Semaphore_sim.acquire sem;
      if contended then begin
        incr sem_waits;
        sem_max := Float.max !sem_max (Engine.now e -. t0)
      end;
      Engine.sleep (hold_of (i + 5));
      Semaphore_sim.release sem
    done
  in
  let phase rounds =
    for _ = 1 to 2 do
      Engine.spawn e (mutex_worker rounds);
      Engine.spawn e (sem_worker rounds)
    done;
    Engine.run e
  in
  let summary name key =
    match Obs.hist_summary obs ~layer:"sim" ~name ~key with
    | Some h -> h
    | None -> Alcotest.failf "no sim/%s[%s]" name key
  in
  let n = 200 in
  phase n;
  let words_n = words () in
  let holds_n = (summary "lock_hold" "bounded.m").Obs.h_count in
  phase (3 * n);
  let w = summary "lock_wait" "bounded.m"
  and h = summary "lock_hold" "bounded.m"
  and s = summary "sem_wait" "bounded.s" in
  check_int "hold count quadruples" (4 * holds_n) h.Obs.h_count;
  check_bool
    (Printf.sprintf "cell words fixed (%d after n, %d after 4n)" words_n (words ()))
    true
    (words () <= words_n + 16);
  let same what a b = check_bool what true (Float.equal a b) in
  check_int "wait count = contended" (Mutex_sim.contended m) w.Obs.h_count;
  check_int "hold count = acquisitions" (Mutex_sim.acquisitions m) h.Obs.h_count;
  same "wait total = total_wait" (Mutex_sim.total_wait m) w.Obs.h_total;
  same "hold total = total_hold" (Mutex_sim.total_hold m) h.Obs.h_total;
  same "wait max" !wait_max w.Obs.h_max;
  same "hold max" !hold_max h.Obs.h_max;
  check_int "sem wait count" !sem_waits s.Obs.h_count;
  same "sem wait max" !sem_max s.Obs.h_max

let test_mutex_fifo_handoff () =
  let e = Engine.create () in
  let m = Mutex_sim.create e ~name:"m" in
  let order = ref [] in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        Mutex_sim.with_lock m (fun () ->
            order := i :: !order;
            Engine.sleep 1.0))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ] (List.rev !order)

let test_mutex_unlock_unlocked () =
  let e = Engine.create () in
  let m = Mutex_sim.create e ~name:"m" in
  Alcotest.check_raises "unlock raises"
    (Invalid_argument "Mutex_sim.unlock: not locked: m") (fun () ->
      Mutex_sim.unlock m)

(* ------------------------------------------------------------------ *)
(* Condition *)

let test_condition_signal () =
  let e = Engine.create () in
  let m = Mutex_sim.create e ~name:"m" in
  let c = Condition_sim.create e in
  let ready = ref false and observed = ref false in
  Engine.spawn e (fun () ->
      Mutex_sim.lock m;
      while not !ready do
        Condition_sim.wait c m
      done;
      observed := true;
      Mutex_sim.unlock m);
  Engine.spawn e (fun () ->
      Engine.sleep 1.0;
      Mutex_sim.with_lock m (fun () -> ready := true);
      Condition_sim.signal c);
  Engine.run e;
  check_bool "woken and observed" true !observed

let test_condition_broadcast () =
  let e = Engine.create () in
  let m = Mutex_sim.create e ~name:"m" in
  let c = Condition_sim.create e in
  let woken = ref 0 in
  for _ = 1 to 5 do
    Engine.spawn e (fun () ->
        Mutex_sim.lock m;
        Condition_sim.wait c m;
        incr woken;
        Mutex_sim.unlock m)
  done;
  Engine.spawn e (fun () ->
      Engine.sleep 1.0;
      Condition_sim.broadcast c);
  Engine.run e;
  check_int "all woken" 5 !woken

(* ------------------------------------------------------------------ *)
(* Semaphore / Channel / Waitgroup *)

let test_semaphore_limits () =
  let e = Engine.create () in
  let s = Semaphore_sim.create e ~value:2 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 6 do
    Engine.spawn e (fun () ->
        Semaphore_sim.acquire s;
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        Engine.sleep 1.0;
        decr inside;
        Semaphore_sim.release s)
  done;
  Engine.run e;
  check_int "at most 2 inside" 2 !max_inside;
  check_float "three waves" 3.0 (Engine.now e)

let test_try_acquire () =
  let e = Engine.create () in
  let s = Semaphore_sim.create e ~value:1 in
  check_bool "first succeeds" true (Semaphore_sim.try_acquire s);
  check_bool "second fails" false (Semaphore_sim.try_acquire s);
  Semaphore_sim.release s;
  check_bool "after release" true (Semaphore_sim.try_acquire s)

let test_channel_fifo () =
  let e = Engine.create () in
  let ch = Channel.create e ~capacity:2 in
  let got = ref [] in
  Engine.spawn e (fun () ->
      for i = 1 to 5 do
        Channel.put ch i
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to 5 do
        let v = Channel.get ch in
        got := v :: !got;
        Engine.sleep 0.1
      done);
  Engine.run e;
  Alcotest.(check (list int)) "FIFO delivery" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_channel_blocking_producer () =
  let e = Engine.create () in
  let ch = Channel.create e ~capacity:1 in
  let done_at = ref 0.0 in
  Engine.spawn e (fun () ->
      Channel.put ch 1;
      Channel.put ch 2;
      (* blocks until consumer takes the first *)
      done_at := Engine.time ());
  Engine.spawn e (fun () ->
      Engine.sleep 3.0;
      ignore (Channel.get ch));
  Engine.run e;
  check_float "producer blocked until get" 3.0 !done_at

let test_waitgroup () =
  let e = Engine.create () in
  let wg = Waitgroup.create e in
  let finished_at = ref 0.0 in
  for i = 1 to 3 do
    Waitgroup.add wg;
    Engine.spawn e (fun () ->
        Engine.sleep (float_of_int i);
        Waitgroup.finish wg)
  done;
  Engine.spawn e (fun () ->
      Waitgroup.wait wg;
      finished_at := Engine.time ());
  Engine.run e;
  check_float "waits for slowest" 3.0 !finished_at

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_int "count" 5 (Stats.count s);
  check_float "mean" 3.0 (Stats.mean s);
  check_float "min" 1.0 (Stats.min s);
  check_float "max" 5.0 (Stats.max s);
  check_float "median" 3.0 (Stats.percentile s 50.0);
  check_float "p0" 1.0 (Stats.percentile s 0.0);
  check_float "p100" 5.0 (Stats.percentile s 100.0);
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) (Stats.stddev s)

let test_stats_percentile_interpolation () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 10.0; 20.0 ];
  check_float "p75 interpolates" 17.5 (Stats.percentile s 75.0)

let test_stats_empty () =
  let s = Stats.create () in
  check_float "mean of empty" 0.0 (Stats.mean s);
  check_float "p99 of empty" 0.0 (Stats.percentile s 99.0);
  check_float "ci of empty" 0.0 (Stats.ci95_halfwidth s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add a) [ 1.0; 2.0 ];
  List.iter (Stats.add b) [ 3.0; 4.0 ];
  Stats.merge_into ~dst:a ~src:b;
  check_int "merged count" 4 (Stats.count a);
  check_float "merged mean" 2.5 (Stats.mean a)

let test_stats_single_sample () =
  let s = Stats.create () in
  Stats.add s 42.0;
  check_float "p0 of one" 42.0 (Stats.percentile s 0.0);
  check_float "p50 of one" 42.0 (Stats.percentile s 50.0);
  check_float "p100 of one" 42.0 (Stats.percentile s 100.0);
  check_float "mean of one" 42.0 (Stats.mean s)

(* The sample sort takes a float-specialised path when no NaN and no
   negative zero is present, and the generic [Array.sort] otherwise;
   either way every percentile must equal, bit for bit, the one read off
   an [Array.sort Float.compare] of the same samples. *)
let test_stats_sort_matches_generic () =
  let reference xs p =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n = 0 then 0.0
    else
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then a.(lo)
      else
        let frac = rank -. float_of_int lo in
        (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  in
  let rng = Random.State.make [| 17 |] in
  let check_same label xs =
    let s = Stats.create () in
    List.iter (Stats.add s) xs;
    List.iter
      (fun p ->
        let got = Stats.percentile s p and want = reference xs p in
        if Int64.bits_of_float got <> Int64.bits_of_float want then
          Alcotest.failf "%s, n=%d: p%g is %h, generic sort gives %h" label
            (List.length xs) p got want)
      [ 0.0; 1.0; 10.0; 25.0; 33.3; 50.0; 66.7; 90.0; 99.0; 99.9; 100.0 ]
  in
  List.iter
    (fun n ->
      (* few distinct values, so runs of equal samples straddle merges *)
      check_same "duplicates"
        (List.init n (fun _ -> float_of_int (Random.State.int rng 7)));
      check_same "spread" (List.init n (fun _ -> Random.State.float rng 1e3));
      check_same "descending" (List.init n (fun i -> float_of_int (n - i))))
    [ 1; 2; 15; 16; 17; 31; 33; 100; 1000; 4099 ];
  check_same "signed zeros" [ 0.0; -0.0; 3.0; -0.0; 0.0; -1.0; 0.0 ];
  check_same "nan" [ 2.0; Float.nan; 1.0; Float.nan; 0.5 ]

let test_stats_unsorted_readd () =
  (* percentile sorts lazily; adding after a query must re-sort *)
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.0; 1.0; 3.0 ];
  check_float "median of three" 3.0 (Stats.percentile s 50.0);
  Stats.add s 0.0;
  Stats.add s 2.0;
  check_float "median after re-add" 2.0 (Stats.percentile s 50.0);
  check_float "max after re-add" 5.0 (Stats.percentile s 100.0);
  check_float "min after re-add" 0.0 (Stats.percentile s 0.0)

(* ------------------------------------------------------------------ *)
(* Obs *)

let test_obs_counters () =
  let o = Obs.create () in
  let c0 = Obs.counter o ~layer:"kernel" ~name:"ctx" ~key:"pool0" in
  let c1 = Obs.counter o ~layer:"kernel" ~name:"ctx" ~key:"pool1" in
  Obs.add c0 3.0;
  Obs.add c1 4.0;
  Obs.incr c0;
  check_float "per key" 4.0 (Obs.get o ~layer:"kernel" ~name:"ctx" ~key:"pool0");
  check_float "sum" 8.0 (Obs.sum o ~name:"ctx" ());
  Alcotest.(check (list (pair string (float 0.0))))
    "by_key sorted"
    [ ("pool0", 4.0); ("pool1", 4.0) ]
    (Obs.by_key o ~layer:"kernel" ~name:"ctx");
  (* interning returns the same cell *)
  let c0' = Obs.counter o ~layer:"kernel" ~name:"ctx" ~key:"pool0" in
  Obs.incr c0';
  check_float "interned handle shares the cell" 5.0 (Obs.counter_value c0)

let test_obs_gauges_and_histograms () =
  let o = Obs.create () in
  let g = Obs.gauge o ~layer:"hw" ~name:"queue" ~key:"all" in
  Obs.set g 3.0;
  Obs.set_max g 1.0;
  check_float "set_max keeps larger" 3.0 (Obs.gauge_value g);
  Obs.set_max g 7.0;
  check_float "set_max raises" 7.0 (Obs.gauge_value g);
  let h = Obs.histogram o ~layer:"sim" ~name:"wait" ~key:"lock" in
  List.iter (Obs.observe h) [ 1.0; 2.0; 3.0 ];
  (match Obs.hist_summary o ~layer:"sim" ~name:"wait" ~key:"lock" with
  | Some s ->
      check_int "hist count" 3 s.Obs.h_count;
      check_float "hist mean" 2.0 s.Obs.h_mean;
      check_float "hist max" 3.0 s.Obs.h_max
  | None -> Alcotest.fail "histogram summary missing");
  (* same id under a different kind is a bug *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs: sim/wait[lock] is a histogram, requested as counter")
    (fun () -> ignore (Obs.counter o ~layer:"sim" ~name:"wait" ~key:"lock"))

let test_obs_reset_keeps_handles () =
  let o = Obs.create () in
  let c = Obs.counter o ~layer:"kernel" ~name:"ops" ~key:"p" in
  let h = Obs.histogram o ~layer:"sim" ~name:"wait" ~key:"l" in
  Obs.add c 9.0;
  Obs.observe h 1.0;
  Obs.reset o;
  check_float "counter cleared" 0.0 (Obs.counter_value c);
  check_int "histogram cleared" 0 (Stats.count (Obs.hist_stats h));
  Obs.incr c;
  check_float "handle still live after reset" 1.0
    (Obs.get o ~layer:"kernel" ~name:"ops" ~key:"p")

let test_obs_trace_ring () =
  let o = Obs.create ~tracing:true ~trace_capacity:3 () in
  for i = 1 to 5 do
    Obs.span o ~at:(float_of_int i) ~layer:"kernel" ~name:"flush" ~dur:0.5
  done;
  let spans = Obs.spans o in
  check_int "bounded store" 3 (List.length spans);
  check_int "dropped count" 2 (Obs.dropped_spans o);
  (* keep-oldest: new spans are dropped when full, so surviving causal
     children always find their parents *)
  (match spans with
  | first :: _ -> check_float "oldest survivor" 1.0 first.Obs.sp_at
  | [] -> Alcotest.fail "empty store");
  let quiet = Obs.create () in
  Obs.span quiet ~at:1.0 ~layer:"kernel" ~name:"flush" ~dur:0.5;
  check_int "no-op when tracing off" 0 (List.length (Obs.spans quiet))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  check_bool "split differs from parent" true (Rng.bits64 a <> Rng.bits64 b)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_heap_sorted =
  QCheck.Test.make ~name:"pheap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Pheap.create ~cmp:Int.compare in
      List.iter (Pheap.push h) xs;
      let rec drain acc =
        match Pheap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

let prop_stats_mean_bounds =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      Stats.mean s >= Stats.min s -. 1e-6 && Stats.mean s <= Stats.max s +. 1e-6)

let prop_stats_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_range 0.0 1e3))
        (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (xs, (p1, p2)) ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile s lo <= Stats.percentile s hi +. 1e-9)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.int (fun seed ->
      let r = Rng.create seed in
      let x = Rng.float r in
      x >= 0.0 && x < 1.0)

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng int in bound" ~count:500
    QCheck.(pair int (int_range 1 10000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_exponential_positive =
  QCheck.Test.make ~name:"exponential draws positive" ~count:300
    QCheck.(pair int (float_range 0.001 100.0))
    (fun (seed, mean) ->
      let r = Rng.create seed in
      Rng.exponential r ~mean >= 0.0)

let prop_channel_preserves_order =
  QCheck.Test.make ~name:"channel preserves order under any capacity" ~count:100
    QCheck.(pair (int_range 1 8) (list_of_size Gen.(int_range 0 30) int))
    (fun (cap, xs) ->
      let e = Engine.create () in
      let ch = Channel.create e ~capacity:cap in
      let got = ref [] in
      Engine.spawn e (fun () -> List.iter (Channel.put ch) xs);
      Engine.spawn e (fun () ->
          for _ = 1 to List.length xs do
            got := Channel.get ch :: !got
          done);
      Engine.run e;
      List.rev !got = xs)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "sim.engine",
      [
        tc "sleep ordering" `Quick test_sleep_ordering;
        tc "same-time FIFO" `Quick test_same_time_fifo;
        tc "nested fork" `Quick test_nested_fork;
        tc "run_until" `Quick test_run_until;
        tc "deadlock detection" `Quick test_deadlock_detection;
        tc "suspend wakes once" `Quick test_suspend_wake_once;
        tc "schedule callback" `Quick test_schedule_callback;
        tc "self name" `Quick test_self_name;
      ] );
    ( "sim.sync",
      [
        tc "mutex exclusion" `Quick test_mutex_exclusion;
        tc "mutex stats" `Quick test_mutex_stats;
        tc "mutex FIFO handoff" `Quick test_mutex_fifo_handoff;
        tc "lock histograms bounded, exact fields" `Quick
          test_lock_hist_bounded_exact;
        tc "unlock unlocked raises" `Quick test_mutex_unlock_unlocked;
        tc "condition signal" `Quick test_condition_signal;
        tc "condition broadcast" `Quick test_condition_broadcast;
        tc "semaphore limits" `Quick test_semaphore_limits;
        tc "semaphore try_acquire" `Quick test_try_acquire;
        tc "channel FIFO" `Quick test_channel_fifo;
        tc "channel blocks producer" `Quick test_channel_blocking_producer;
        tc "waitgroup" `Quick test_waitgroup;
      ] );
    ( "sim.stats",
      [
        tc "basic summary" `Quick test_stats_basic;
        tc "percentile interpolation" `Quick test_stats_percentile_interpolation;
        tc "empty summary" `Quick test_stats_empty;
        tc "merge" `Quick test_stats_merge;
        tc "single sample percentiles" `Quick test_stats_single_sample;
        tc "unsorted re-add" `Quick test_stats_unsorted_readd;
        tc "obs counters" `Quick test_obs_counters;
        tc "obs gauges and histograms" `Quick test_obs_gauges_and_histograms;
        tc "obs reset keeps handles" `Quick test_obs_reset_keeps_handles;
        tc "obs trace ring" `Quick test_obs_trace_ring;
        tc "sort matches the generic sort" `Quick test_stats_sort_matches_generic;
      ] );
    ( "sim.rng",
      [
        tc "determinism" `Quick test_rng_determinism;
        tc "split independence" `Quick test_rng_split_independent;
      ] );
    ( "sim.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_heap_sorted;
          prop_stats_mean_bounds;
          prop_stats_percentile_monotone;
          prop_rng_float_range;
          prop_rng_int_range;
          prop_exponential_positive;
          prop_channel_preserves_order;
        ] );
  ]

(* ------------------------------------------------------------------ *)
(* Engine edge cases *)

let test_process_exception_propagates () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      Engine.sleep 1.0;
      failwith "boom");
  Alcotest.check_raises "exception escapes run" (Failure "boom") (fun () ->
      Engine.run e)

let test_zero_delay_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      log := 1 :: !log;
      Engine.yield ();
      log := 3 :: !log);
  Engine.spawn e (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "yield interleaves" [ 1; 2; 3 ] (List.rev !log)

let test_ci95 () =
  let s = Stats.create () in
  for _ = 1 to 100 do
    Stats.add s 10.0
  done;
  check_float "no variance, no interval" 0.0 (Stats.ci95_halfwidth s);
  Stats.add s 1000.0;
  check_bool "outlier widens the interval" true (Stats.ci95_halfwidth s > 1.0)

let edge_suite =
  let tc = Alcotest.test_case in
  [
    ( "sim.edge",
      [
        tc "process exception propagates" `Quick test_process_exception_propagates;
        tc "yield ordering" `Quick test_zero_delay_runs_in_order;
        tc "ci95" `Quick test_ci95;
      ] );
  ]

let suite = suite @ edge_suite

let test_obs_snapshot_sorted () =
  let o = Obs.create () in
  Obs.incr (Obs.counter o ~layer:"kernel" ~name:"b" ~key:"x");
  Obs.incr (Obs.counter o ~layer:"hw" ~name:"a" ~key:"y");
  Obs.set (Obs.gauge o ~layer:"hw" ~name:"a" ~key:"x") 2.0;
  let ids =
    List.map
      (fun s -> (s.Obs.s_layer, s.Obs.s_name, s.Obs.s_key))
      (Obs.snapshot o)
  in
  Alcotest.(check (list (triple string string string)))
    "snapshot sorted by layer/name/key"
    [ ("hw", "a", "x"); ("hw", "a", "y"); ("kernel", "b", "x") ]
    ids;
  let pref = Obs.prefix_keys "D:p1:" (Obs.snapshot o) in
  Alcotest.(check (list string))
    "prefix_keys rewrites keys"
    [ "D:p1:x"; "D:p1:y"; "D:p1:x" ]
    (List.map (fun s -> s.Obs.s_key) pref);
  check_bool "dump mentions cell" true
    (let dump = Obs.dump o in
     String.length dump > 0
     &&
     let sub = "kernel/b[x] = counter 1" in
     let rec find i =
       i + String.length sub <= String.length dump
       && (String.sub dump i (String.length sub) = sub || find (i + 1))
     in
     find 0)

let test_gamma_like_mean () =
  let r = Rng.create 3 in
  let s = Stats.create () in
  for _ = 1 to 5000 do
    Stats.add s (Rng.gamma_like r ~mean:100.0 ~shape:2)
  done;
  check_bool "empirical mean near 100" true
    (Float.abs (Stats.mean s -. 100.0) < 5.0)

let misc_suite =
  let tc = Alcotest.test_case in
  [
    ( "sim.misc",
      [
        tc "obs snapshot ordering" `Quick test_obs_snapshot_sorted;
        tc "gamma mean" `Quick test_gamma_like_mean;
      ] );
  ]

let suite = suite @ misc_suite

let test_waitgroup_finish_without_add () =
  let e = Engine.create () in
  let wg = Waitgroup.create e in
  Alcotest.check_raises "finish without add"
    (Invalid_argument "Waitgroup.finish: count already zero") (fun () ->
      Waitgroup.finish wg)

let test_negative_sleep_rejected () =
  let e = Engine.create () in
  let raised = ref false in
  Engine.spawn e (fun () ->
      match Engine.sleep (-1.0) with
      | () -> ()
      | exception Invariant.Violation { v_layer = "engine"; _ } ->
          raised := true);
  (try Engine.run e with Invariant.Violation { v_layer = "engine"; _ } ->
    raised := true);
  check_bool "negative sleep rejected" true !raised

let guard_suite =
  let tc = Alcotest.test_case in
  [
    ( "sim.guards",
      [
        tc "waitgroup misuse" `Quick test_waitgroup_finish_without_add;
        tc "negative sleep" `Quick test_negative_sleep_rejected;
      ] );
  ]

let suite = suite @ guard_suite

(* ------------------------------------------------------------------ *)
(* Pheap: direct unit tests of the engine's event queue *)

let test_pheap_empty () =
  let h = Pheap.create ~cmp:Int.compare in
  check_bool "pop on empty" true (Pheap.pop h = None);
  check_bool "peek on empty" true (Pheap.peek h = None);
  check_int "size 0" 0 (Pheap.size h);
  check_bool "is_empty" true (Pheap.is_empty h);
  check_bool "empty heap is a heap" true (Pheap.is_heap h);
  Pheap.push h 3;
  Pheap.clear h;
  check_bool "pop after clear" true (Pheap.pop h = None)

let test_pheap_total_order_seeded () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 400 in
      let xs = List.init n (fun _ -> Rng.int rng 1000) in
      let h = Pheap.create ~cmp:Int.compare in
      List.iter
        (fun x ->
          Pheap.push h x;
          check_bool "heap order after push" true (Pheap.is_heap h))
        xs;
      check_int "size after pushes" n (Pheap.size h);
      let rec drain acc =
        match Pheap.peek h with
        | None ->
            check_bool "pop agrees with peek at end" true (Pheap.pop h = None);
            List.rev acc
        | Some top ->
            check_bool "pop returns the peeked element" true
              (Pheap.pop h = Some top);
            check_bool "heap order after pop" true (Pheap.is_heap h);
            drain (top :: acc)
      in
      let drained = drain [] in
      check_bool "drained in total order" true
        (drained = List.sort Int.compare xs))
    [ 1; 2; 7; 42; 1337 ]

(* The engine orders events by (time, seq) with seq assigned at insertion,
   so same-time events must drain in insertion order no matter how the
   pushes were interleaved. *)
let test_pheap_tie_break_deterministic () =
  let cmp (t1, s1) (t2, s2) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
  in
  let evs =
    Array.init 64 (fun i -> ((if i land 1 = 0 then 1.0 else 2.0), i))
  in
  let expected = List.sort cmp (Array.to_list evs) in
  List.iter
    (fun seed ->
      let scrambled = Array.copy evs in
      Rng.shuffle (Rng.create seed) scrambled;
      let h = Pheap.create ~cmp in
      Array.iter (Pheap.push h) scrambled;
      let rec drain acc =
        match Pheap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      check_bool "ties drain by sequence number" true (drain [] = expected))
    [ 3; 5; 9; 21 ]

let pheap_suite =
  let tc = Alcotest.test_case in
  [
    ( "sim.pheap",
      [
        tc "empty heap" `Quick test_pheap_empty;
        tc "total order under random seeds" `Quick test_pheap_total_order_seeded;
        tc "tie-breaking determinism" `Quick test_pheap_tie_break_deterministic;
      ] );
  ]

let suite = suite @ pheap_suite

(* ------------------------------------------------------------------ *)
(* Event_queue: differential tests of the monomorphic (time, seq) queue
   — binary and 4-ary variants — against the reference Pheap, plus the
   allocation guarantee the engine's run loop is built on. *)

let eq_cmp (t1, s1) (t2, s2) =
  match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c

let drain_queue (type q) (module Q : Event_queue.S with type t = q) (q : q) =
  let rec go acc =
    if Q.is_empty q then List.rev acc
    else begin
      let at = Q.min_time q and seq = Q.min_seq q in
      (Q.pop_exn q) ();
      go ((at, seq) :: acc)
    end
  in
  go []

let prop_event_queue_matches_pheap =
  QCheck.Test.make
    ~name:"event queue drains like pheap (binary and 4-ary)" ~count:300
    QCheck.(list (int_range 0 7))
    (fun xs ->
      (* seq assigned in push order, as the engine does; small time
         domain forces same-time groups so ties are exercised hard *)
      let h = Pheap.create ~cmp:eq_cmp in
      let qb = Event_queue.create () in
      let qf = Event_queue.Fourary.create () in
      List.iteri
        (fun s x ->
          let at = float_of_int x in
          Pheap.push h (at, s);
          Event_queue.push qb ~at ~seq:s (fun () -> ());
          Event_queue.Fourary.push qf ~at ~seq:s (fun () -> ()))
        xs;
      let rec drain_ph acc =
        match Pheap.pop h with
        | None -> List.rev acc
        | Some x -> drain_ph (x :: acc)
      in
      let expected = drain_ph [] in
      drain_queue (module Event_queue) qb = expected
      && drain_queue (module Event_queue.Fourary) qf = expected)

(* Interleaved pushes and pops against all three structures at once:
   exercises sift-down from mid-heap states a build-then-drain test
   never reaches. *)
let test_event_queue_interleaved_differential () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let h = Pheap.create ~cmp:eq_cmp in
      let qb = Event_queue.create () in
      let qf = Event_queue.Fourary.create () in
      let seq = ref 0 in
      for _ = 1 to 2_000 do
        if Rng.int rng 3 > 0 || Pheap.is_empty h then begin
          let at = float_of_int (Rng.int rng 16) in
          let s = !seq in
          incr seq;
          Pheap.push h (at, s);
          Event_queue.push qb ~at ~seq:s (fun () -> ());
          Event_queue.Fourary.push qf ~at ~seq:s (fun () -> ())
        end
        else begin
          let expected = Pheap.pop h in
          let got_b = (Event_queue.min_time qb, Event_queue.min_seq qb) in
          let got_f =
            (Event_queue.Fourary.min_time qf, Event_queue.Fourary.min_seq qf)
          in
          (Event_queue.pop_exn qb) ();
          (Event_queue.Fourary.pop_exn qf) ();
          check_bool "binary pop matches pheap" true (Some got_b = expected);
          check_bool "4-ary pop matches pheap" true (Some got_f = expected)
        end
      done;
      check_int "sizes agree (binary)" (Pheap.size h) (Event_queue.size qb);
      check_int "sizes agree (4-ary)" (Pheap.size h)
        (Event_queue.Fourary.size qf);
      check_bool "binary invariant holds" true (Event_queue.is_heap qb);
      check_bool "4-ary invariant holds" true (Event_queue.Fourary.is_heap qf);
      let expected =
        let rec go acc =
          match Pheap.pop h with None -> List.rev acc | Some x -> go (x :: acc)
        in
        go []
      in
      check_bool "binary drains like pheap" true
        (drain_queue (module Event_queue) qb = expected);
      check_bool "4-ary drains like pheap" true
        (drain_queue (module Event_queue.Fourary) qf = expected))
    [ 11; 23; 42; 1009 ]

(* The refactored run loop's contract: with checking off and no tracing,
   a self-rescheduling no-op event costs zero minor-heap words.  This is
   what keeps the simulator's throughput allocation-flat; a regression
   here means a float got boxed or an option crept back into the hot
   path (see DESIGN.md, "Engine internals").  The bound is per-event
   with generous slack for the run loop's fixed-cost closures. *)
let test_run_loop_zero_alloc () =
  let saved = Invariant.mode () in
  Invariant.set_mode Invariant.Off;
  Fun.protect
    ~finally:(fun () -> Invariant.set_mode saved)
    (fun () ->
      let e = Engine.create () in
      let events = 50_000 in
      let n = ref 0 in
      let rec tick () =
        incr n;
        if !n < events then Engine.schedule e tick
      in
      (* warm-up pass: grows the queue arrays, settles the minor heap *)
      Engine.schedule e tick;
      Engine.run e;
      n := 0;
      Gc.full_major ();
      let w0 = Gc.minor_words () in
      Engine.schedule e tick;
      Engine.run e;
      let w1 = Gc.minor_words () in
      let per_event = (w1 -. w0) /. float_of_int events in
      check_bool
        (Printf.sprintf "run loop allocates (%.4f words/event)" per_event)
        true
        (per_event < 0.01))

(* Degenerate sizes the differential drains never isolate: popping an
   empty queue raises, a singleton round-trips through every accessor,
   and an all-equal-time fill pops in seq (push) order. *)
let degenerate_cases (type q) label (module Q : Event_queue.S with type t = q) =
  let q = Q.create () in
  check_bool (label ^ ": fresh queue empty") true (Q.is_empty q);
  check_int (label ^ ": fresh size") 0 (Q.size q);
  (try
     let (_ : unit -> unit) = Q.pop_exn q in
     Alcotest.failf "%s: pop of an empty queue returned" label
   with Invalid_argument _ -> ());
  let hit = ref false in
  Q.push q ~at:3.5 ~seq:9 (fun () -> hit := true);
  check_int (label ^ ": singleton size") 1 (Q.size q);
  check_bool (label ^ ": singleton not empty") false (Q.is_empty q);
  check_float (label ^ ": singleton min_time") 3.5 (Q.min_time q);
  check_int (label ^ ": singleton min_seq") 9 (Q.min_seq q);
  check_bool (label ^ ": singleton is a heap") true (Q.is_heap q);
  (Q.pop_exn q) ();
  check_bool (label ^ ": singleton thunk ran") true !hit;
  check_bool (label ^ ": empty after singleton pop") true (Q.is_empty q);
  (try
     let (_ : unit -> unit) = Q.pop_exn q in
     Alcotest.failf "%s: pop after drain returned" label
   with Invalid_argument _ -> ());
  (* all-equal timestamps: the seq column alone must order the heap,
     and clear must reset it for reuse *)
  for s = 0 to 15 do
    Q.push q ~at:1.0 ~seq:s (fun () -> ())
  done;
  check_bool (label ^ ": heap after equal-time fill") true (Q.is_heap q);
  Alcotest.(check (list int))
    (label ^ ": equal timestamps pop in push order")
    (List.init 16 Fun.id)
    (List.map snd (drain_queue (module Q) q));
  Q.push q ~at:2.0 ~seq:0 (fun () -> ());
  Q.clear q;
  check_bool (label ^ ": empty after clear") true (Q.is_empty q)

let test_event_queue_degenerate () =
  degenerate_cases "binary" (module Event_queue);
  degenerate_cases "4-ary" (module Event_queue.Fourary)

let event_queue_suite =
  let tc = Alcotest.test_case in
  [
    ( "sim.event_queue",
      QCheck_alcotest.to_alcotest prop_event_queue_matches_pheap
      :: [
           tc "degenerate sizes (empty, singleton, equal times)" `Quick
             test_event_queue_degenerate;
           tc "interleaved differential vs pheap" `Quick
             test_event_queue_interleaved_differential;
           tc "run loop allocation-free" `Quick test_run_loop_zero_alloc;
         ] );
  ]

let suite = suite @ event_queue_suite
