type t = {
  engine : Engine.t;
  sem_name : string option;
  initial : int; (* permits at creation; release balance bound *)
  mutable permits : int;
  waiting : (unit -> unit) Queue.t;
  (* only named semaphores record waits; sketch-backed, as the lock
     histograms of {!Mutex_sim}, so a gate's cell has fixed memory *)
  wait_h : Obs.histogram option;
}

let create ?name engine ~value =
  Invariant.precondition ~layer:"semaphore" ~what:"create_value"
    ~detail:(fun () -> Printf.sprintf "negative initial value %d" value)
    (value >= 0);
  {
    engine;
    sem_name = name;
    initial = value;
    permits = value;
    waiting = Queue.create ();
    wait_h =
      Option.map
        (fun n ->
          Obs.histogram ~backing:Obs.Sketch (Engine.obs engine) ~layer:"sim"
            ~name:"sem_wait" ~key:n)
        name;
  }

let acquire t =
  if t.permits > 0 then t.permits <- t.permits - 1
  else begin
    let started = Engine.now t.engine in
    Engine.suspend (fun wake -> Queue.add wake t.waiting);
    match t.wait_h with
    | Some h ->
        let now = Engine.now t.engine in
        Obs.observe h (now -. started);
        if Trace.enabled (Engine.obs t.engine) then
          Trace.emit t.engine ~layer:"sim" ~name:"sem"
            ~key:(Option.value ~default:"" t.sem_name)
            ~phase:Queue_wait ~start:started ~dur:(now -. started)
    | None -> ()
  end

let release t =
  (* exceptionless non-allocating hand-off, as in {!Mutex_sim.unlock} *)
  if not (Queue.is_empty t.waiting) then
    (* the permit is handed over directly *)
    (Queue.pop t.waiting) ()
  else begin
    t.permits <- t.permits + 1;
      (* Every use in the tree is a bounded window (disk/net gates, bdi
         and flush windows): more releases than acquires means a path
         double-released its permit.  Guarded: this runs once per
         released permit on the IO fast path. *)
      if Invariant.on () then
        Invariant.require ~obs:(Engine.obs t.engine) ~layer:"semaphore"
          ~what:"release_balance"
          ~detail:(fun () ->
            Printf.sprintf "%s has %d permits, created with %d"
              (Option.value ~default:"<anon>" t.sem_name)
              t.permits t.initial)
          (t.permits <= t.initial)
  end

let try_acquire t =
  if t.permits > 0 then begin
    t.permits <- t.permits - 1;
    true
  end
  else false

let value t = t.permits
let waiters t = Queue.length t.waiting
