open Danaus_sim

(* flat single-float record: per-burst accounting updates stay unboxed *)
type fcell = { mutable v : float }

type core = {
  id : int;
  mutable busy : bool;
  mutable total_busy : float;
  usage : (string, fcell) Hashtbl.t;
}

(* A queued compute request.  It is listed in the wait queue of every
   core it may run on; [taken] marks it granted, so the copies left in
   the other cores' queues are skipped (and dropped) when they surface. *)
type waiter = { grant : int -> unit; mutable taken : bool }

type t = {
  engine : Engine.t;
  quantum : float;
  cores : core array;
  waits : waiter Queue.t array;
      (* per core, in global arrival order: the front live entry of a
         core's queue is the oldest waiter eligible to run on it *)
  mutable nwait : int; (* live (not yet granted) waiters *)
  mutable rotor : int; (* rotating start point for idle-core search *)
  busy_handles : (string, Obs.counter) Hashtbl.t; (* tenant -> handle *)
  core_keys : string array; (* interned "coreN" span keys *)
  queue_g : Obs.gauge;
  queue_peak_g : Obs.gauge;
}

let create ?(quantum = 500e-6) engine ~cores =
  assert (cores >= 1 && quantum > 0.0);
  let obs = Engine.obs engine in
  {
    engine;
    quantum;
    cores =
      Array.init cores (fun id ->
          { id; busy = false; total_busy = 0.0; usage = Hashtbl.create 8 });
    waits = Array.init cores (fun _ -> Queue.create ());
    nwait = 0;
    rotor = 0;
    busy_handles = Hashtbl.create 16;
    core_keys = Array.init cores (Printf.sprintf "core%d");
    queue_g = Obs.gauge obs ~layer:"hw" ~name:"cpu_queue" ~key:"all";
    queue_peak_g = Obs.gauge obs ~layer:"hw" ~name:"cpu_queue_peak" ~key:"all";
  }

let core_count t = Array.length t.cores
let waiting t = t.nwait

(* Drop granted waiters from the front of core [id]'s queue; the front
   is then the oldest live waiter eligible to run on [id], if any. *)
let rec live_front t id =
  let q = t.waits.(id) in
  match Queue.peek_opt q with
  | Some w when w.taken ->
      ignore (Queue.pop q);
      live_front t id
  | front -> front

(* Queue [w] on core [id].  Granted copies normally surface at the
   front within a quantum (a busy core is released after every burst);
   the compaction bounds the queue of a core that is rarely released
   while the waiters listed on it are served by other cores. *)
let enqueue t id w =
  let q = t.waits.(id) in
  if Queue.length q > 4 * (t.nwait + 16) then begin
    let live = Queue.create () in
    Queue.iter (fun w -> if not w.taken then Queue.add w live) q;
    Queue.clear q;
    Queue.transfer live q
  end;
  Queue.add w q

(* Rotating search so that background work spreads over the eligible
   cores instead of clustering on the lowest ids.  Returns the core id
   or -1: this runs once per 500 µs burst, so no option wrapping. *)
let find_idle t eligible =
  let n = Array.length eligible in
  let start = t.rotor mod n in
  t.rotor <- t.rotor + 1;
  let found = ref (-1) in
  for i = 0 to n - 1 do
    let id = eligible.((start + i) mod n) in
    if !found < 0 && not t.cores.(id).busy then found := id
  done;
  !found

let acquire t ~eligible =
  match find_idle t eligible with
  | id when id >= 0 ->
      t.cores.(id).busy <- true;
      id
  | _ ->
      let granted = ref (-1) in
      Engine.suspend (fun wake ->
          let grant id =
            granted := id;
            wake ()
          in
          let w = { grant; taken = false } in
          Array.iter (fun id -> enqueue t id w) eligible;
          t.nwait <- t.nwait + 1;
          let depth = float_of_int t.nwait in
          Obs.set t.queue_g depth;
          Obs.set_max t.queue_peak_g depth);
      !granted

(* Remove and return the oldest waiter eligible to run on [id]. *)
let take_waiter t id =
  match live_front t id with
  | None -> None
  | Some w as found ->
      ignore (Queue.pop t.waits.(id));
      w.taken <- true;
      t.nwait <- t.nwait - 1;
      Obs.set t.queue_g (float_of_int t.nwait);
      found

let release t id =
  match take_waiter t id with
  | Some w -> w.grant id (* core stays busy, handed to the waiter *)
  | None -> t.cores.(id).busy <- false

(* [Hashtbl.find] + exception instead of [find_opt]: the hit path of an
   interning lookup must not allocate an option per burst. *)
let busy_handle t tenant =
  match Hashtbl.find t.busy_handles tenant with
  | h -> h
  | exception Not_found ->
      let h = Obs.counter (Engine.obs t.engine) ~layer:"hw" ~name:"cpu_busy" ~key:tenant in
      Hashtbl.add t.busy_handles tenant h;
      h

let attribute t core ~tenant dt =
  core.total_busy <- core.total_busy +. dt;
  Obs.add (busy_handle t tenant) dt;
  let r =
    match Hashtbl.find core.usage tenant with
    | r -> r
    | exception Not_found ->
        let r = { v = 0.0 } in
        Hashtbl.add core.usage tenant r;
        r
  in
  r.v <- r.v +. dt

let compute t ~tenant ~eligible seconds =
  assert (Array.length eligible > 0);
  assert (seconds >= 0.0);
  (* per-burst [Trace.emit] calls are guarded at this call site: even a
     disabled emit boxes its float arguments, and this loop runs once
     per 500 µs quantum of simulated CPU time *)
  let traced = Trace.enabled (Engine.obs t.engine) in
  let remaining = ref seconds in
  while !remaining > 0.0 do
    let burst = Float.min !remaining t.quantum in
    let started = Engine.now t.engine in
    let id = acquire t ~eligible in
    let ran_at = Engine.now t.engine in
    if traced && ran_at > started then
      Trace.emit t.engine ~layer:"hw" ~name:"cpu_wait" ~key:tenant
        ~phase:Queue_wait ~start:started ~dur:(ran_at -. started);
    Engine.sleep burst;
    attribute t t.cores.(id) ~tenant burst;
    if traced then
      Trace.emit t.engine ~layer:"hw" ~name:tenant ~key:t.core_keys.(id)
        ~phase:Service ~start:ran_at ~dur:burst;
    release t id;
    remaining := !remaining -. burst
  done

(* Background (kworker-style) execution: only ever starts a burst on a
   core that is idle at that instant, and backs off whenever it either
   finds no idle core or displaced foreground work (a waiter queued up
   during the burst).  This models writeback threads living off idle
   time: plentiful when the neighbours' cores are unused, nearly nothing
   when every reserved core is busy (the paper's Fig. 1a mechanism). *)
let compute_background t ~tenant ~eligible ~backoff seconds =
  assert (Array.length eligible > 0);
  assert (seconds >= 0.0 && backoff > 0.0);
  let traced = Trace.enabled (Engine.obs t.engine) in
  let remaining = ref seconds in
  while !remaining > 0.0 do
    match find_idle t eligible with
    | -1 -> Engine.sleep backoff
    | id ->
        t.cores.(id).busy <- true;
        let burst = Float.min !remaining (t.quantum /. 2.0) in
        let ran_at = Engine.now t.engine in
        Engine.sleep burst;
        attribute t t.cores.(id) ~tenant burst;
        if traced then
          Trace.emit t.engine ~layer:"hw" ~name:tenant ~key:t.core_keys.(id)
            ~phase:Service ~start:ran_at ~dur:burst;
        let displaced = Option.is_some (live_front t id) in
        release t id;
        remaining := !remaining -. burst;
        if displaced then Engine.sleep backoff
  done

let busy_seconds t ~cores =
  Array.fold_left (fun acc id -> acc +. t.cores.(id).total_busy) 0.0 cores

let busy_seconds_by t ~cores ~tenant =
  Array.fold_left
    (fun acc id ->
      match Hashtbl.find_opt t.cores.(id).usage tenant with
      | Some r -> acc +. r.v
      | None -> acc)
    0.0 cores

let utilization_pct t ~cores ~tenant ~elapsed =
  if elapsed <= 0.0 then 0.0
  else 100.0 *. busy_seconds_by t ~cores ~tenant /. elapsed

let usage_breakdown t ~cores =
  let table = Hashtbl.create 8 in
  Array.iter
    (fun id ->
      Hashtbl.iter
        (fun tenant r ->
          let cell =
            match Hashtbl.find_opt table tenant with
            | Some c -> c
            | None ->
                let c = ref 0.0 in
                Hashtbl.add table tenant c;
                c
          in
          cell := !cell +. r.v)
        t.cores.(id).usage)
    cores;
  Hashtbl.fold (fun tenant r acc -> (tenant, !r) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_usage t =
  Array.iter
    (fun core ->
      core.total_busy <- 0.0;
      Hashtbl.reset core.usage)
    t.cores
