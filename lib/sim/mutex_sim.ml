(* The float accounting lives in an all-float record: those are flat in
   the OCaml value model, so the per-handoff stat updates are plain
   stores.  The same fields as boxed slots of the mixed record below
   would cost a fresh box per assignment — three minor allocations per
   contended acquisition on the hottest lock in the tree. *)
type fstats = {
  mutable acquired_at : float;
  mutable total_wait : float;
  mutable total_hold : float;
}

type t = {
  engine : Engine.t;
  name : string;
  mutable is_locked : bool;
  waiters : (unit -> unit) Queue.t;
  fs : fstats;
  mutable acquisitions : int;
  mutable contended : int;
  wait_h : Obs.histogram;
  hold_h : Obs.histogram;
}

let create engine ~name =
  let obs = Engine.obs engine in
  {
    engine;
    name;
    is_locked = false;
    waiters = Queue.create ();
    fs = { acquired_at = 0.0; total_wait = 0.0; total_hold = 0.0 };
    acquisitions = 0;
    contended = 0;
    (* mutexes sharing a name (per-inode locks, interned kernel locks)
       share one distribution, which is what the figures aggregate.
       Sketch-backed: a hot lock sees an acquisition per op, so an exact
       store would grow with the run.  Count, total and max stay exact;
       the figures read [total_wait]/[total_hold], not the percentiles. *)
    wait_h =
      Obs.histogram ~backing:Obs.Sketch obs ~layer:"sim" ~name:"lock_wait" ~key:name;
    hold_h =
      Obs.histogram ~backing:Obs.Sketch obs ~layer:"sim" ~name:"lock_hold" ~key:name;
  }

let name t = t.name
let locked t = t.is_locked

let lock t =
  if not t.is_locked then begin
    (* An unlocked mutex with queued waiters means [unlock] dropped a
       hand-off: those waiters will never be woken.  The call site is
       guarded: an unguarded [require] builds its detail closure and
       optional wrappers on every uncontended acquisition. *)
    if Invariant.on () then
      Invariant.require ~obs:(Engine.obs t.engine) ~layer:"mutex"
        ~what:"no_orphan_waiters"
        ~detail:(fun () ->
          Printf.sprintf "%s unlocked with %d waiter(s) queued" t.name
            (Queue.length t.waiters))
        (Queue.is_empty t.waiters);
    t.is_locked <- true;
    t.fs.acquired_at <- Engine.now t.engine;
    t.acquisitions <- t.acquisitions + 1
  end
  else begin
    let started = Engine.now t.engine in
    t.contended <- t.contended + 1;
    Engine.suspend (fun wake -> Queue.add wake t.waiters);
    (* Ownership was passed to us by [unlock]; the mutex is still marked
       locked on our behalf. *)
    let now = Engine.now t.engine in
    t.fs.total_wait <- t.fs.total_wait +. (now -. started);
    Obs.observe t.wait_h (now -. started);
    if Trace.enabled (Engine.obs t.engine) then
      Trace.emit t.engine ~layer:"sim" ~name:"lock" ~key:t.name
        ~phase:Lock_wait ~start:started ~dur:(now -. started);
    t.fs.acquired_at <- now;
    t.acquisitions <- t.acquisitions + 1
  end

let unlock t =
  if not t.is_locked then invalid_arg ("Mutex_sim.unlock: not locked: " ^ t.name);
  let held = Engine.now t.engine -. t.fs.acquired_at in
  if Invariant.on () then
    Invariant.require ~obs:(Engine.obs t.engine) ~layer:"mutex"
      ~what:"hold_non_negative"
      ~detail:(fun () -> Printf.sprintf "%s held for %g" t.name held)
      (held >= 0.0);
  t.fs.total_hold <- t.fs.total_hold +. held;
  Obs.observe t.hold_h held;
  (* exceptionless non-allocating hand-off: [take_opt] would box a
     [Some wake] per contended release *)
  if Queue.is_empty t.waiters then t.is_locked <- false
  else (Queue.pop t.waiters) ()

let with_lock t f =
  lock t;
  match f () with
  | v ->
      unlock t;
      v
  | exception exn ->
      unlock t;
      raise exn

let acquisitions t = t.acquisitions
let contended t = t.contended
let total_wait t = t.fs.total_wait
let total_hold t = t.fs.total_hold

let avg_wait t =
  if t.acquisitions = 0 then 0.0
  else t.fs.total_wait /. float_of_int t.acquisitions

let avg_hold t =
  if t.acquisitions = 0 then 0.0
  else t.fs.total_hold /. float_of_int t.acquisitions

let reset_stats t =
  t.fs.total_wait <- 0.0;
  t.fs.total_hold <- 0.0;
  t.acquisitions <- 0;
  t.contended <- 0
