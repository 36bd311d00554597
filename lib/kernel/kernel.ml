open Danaus_sim
open Danaus_hw

type flush_job = { job_file : Page_cache.file; job_bytes : int }

(* Per-pool accounting handles, resolved once per pool.  [Obs.counter]
   interns by hashing a (layer, name, key) tuple of three strings; doing
   that on every syscall is a measurable fraction of a metadata-heavy
   workload, so the hot entry points below go through this memo. *)
type pool_ctrs = {
  syscalls_c : Obs.counter;
  mode_switches_c : Obs.counter;
  context_switches_c : Obs.counter;
  io_wait_c : Obs.counter;
}

(* Retired totals of a lock class, all-float so the fields stay flat
   (see Mutex_sim). *)
type retired = { mutable r_wait : float; mutable r_hold : float }

type lock_class = {
  cls_engine : Engine.t;
  cls_name : string;
  instances : (int, Mutex_sim.t) Hashtbl.t;
  retired : retired;
  mutable retired_n : int;
}

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  costs : Costs.t;
  mutable activated : int array;
  host_mem : Memory.t;
  page_cache : Page_cache.t;
  obs : Obs.t;
  bytes_flushed_c : Obs.counter;
  flusher_runs_c : Obs.counter;
  locks : (string, Mutex_sim.t) Hashtbl.t;
  classes : (string, lock_class) Hashtbl.t;
  pool_ctrs : (string, pool_ctrs) Hashtbl.t;
  writeback : float;
  expire : float;
  (* one ordered writeback pipeline per mount (Linux per-bdi flusher) *)
  mount_queues : (string, flush_job Channel.t) Hashtbl.t;
  mutable flushers_started : bool;
}

let kernel_tenant = "kernel"
let flush_chunk = 4 * 1024 * 1024

let create ?(costs = Costs.default) ?(writeback = 1.0) ?(expire = 5.0) engine
    ~cpu ~activated ~page_cache_limit =
  let host_mem = Memory.create ~name:"host.page_cache" () in
  let obs = Engine.obs engine in
  {
    engine;
    cpu;
    costs;
    activated;
    host_mem;
    page_cache =
      Page_cache.create engine ~mem:host_mem ~limit:page_cache_limit
        ~block:(64 * 1024);
    obs;
    bytes_flushed_c =
      Obs.counter obs ~layer:"kernel" ~name:"bytes_flushed" ~key:kernel_tenant;
    flusher_runs_c =
      Obs.counter obs ~layer:"kernel" ~name:"flusher_runs" ~key:kernel_tenant;
    locks = Hashtbl.create 64;
    classes = Hashtbl.create 16;
    pool_ctrs = Hashtbl.create 16;
    writeback;
    expire;
    mount_queues = Hashtbl.create 16;
    flushers_started = false;
  }

let engine t = t.engine
let cpu t = t.cpu
let costs t = t.costs
let activated t = t.activated
let page_cache t = t.page_cache
let obs t = t.obs
let set_activated t cores = t.activated <- cores

let pool_ctrs t ~pool =
  let key = Cgroup.name pool in
  match Hashtbl.find t.pool_ctrs key with
  | c -> c
  | exception Not_found ->
      let counter name = Obs.counter t.obs ~layer:"kernel" ~name ~key in
      let c =
        {
          syscalls_c = counter "syscalls";
          mode_switches_c = counter "mode_switches";
          context_switches_c = counter "context_switches";
          io_wait_c = counter "io_wait";
        }
      in
      Hashtbl.add t.pool_ctrs key c;
      c

let lock t name =
  match Hashtbl.find t.locks name with
  | m -> m
  | exception Not_found ->
      let m = Mutex_sim.create t.engine ~name in
      Hashtbl.add t.locks name m;
      m

let lock_class t name =
  match Hashtbl.find t.classes name with
  | c -> c
  | exception Not_found ->
      let c =
        {
          cls_engine = t.engine;
          cls_name = name;
          instances = Hashtbl.create 64;
          retired = { r_wait = 0.0; r_hold = 0.0 };
          retired_n = 0;
        }
      in
      Hashtbl.add t.classes name c;
      c

let class_lock c id =
  match Hashtbl.find c.instances id with
  | m -> m
  | exception Not_found ->
      (* named by the class: instances share one Obs distribution *)
      let m = Mutex_sim.create c.cls_engine ~name:c.cls_name in
      Hashtbl.add c.instances id m;
      m

let retire_lock c id =
  match Hashtbl.find c.instances id with
  | m ->
      c.retired.r_wait <- c.retired.r_wait +. Mutex_sim.total_wait m;
      c.retired.r_hold <- c.retired.r_hold +. Mutex_sim.total_hold m;
      c.retired_n <- c.retired_n + Mutex_sim.acquisitions m;
      Hashtbl.remove c.instances id
  | exception Not_found -> ()

let live_locks c = Hashtbl.length c.instances

let add_lock m (w, h, n) =
  (w +. Mutex_sim.total_wait m, h +. Mutex_sim.total_hold m, n + Mutex_sim.acquisitions m)

let class_totals c =
  Hashtbl.fold
    (fun _ m acc -> add_lock m acc)
    c.instances
    (c.retired.r_wait, c.retired.r_hold, c.retired_n)

let lock_request_stats t =
  let acc = Hashtbl.fold (fun _ m acc -> add_lock m acc) t.locks (0.0, 0.0, 0) in
  let wait, hold, n =
    Hashtbl.fold
      (fun _ c (w, h, n) ->
        let cw, ch, cn = class_totals c in
        (w +. cw, h +. ch, n + cn))
      t.classes acc
  in
  if n = 0 then (0.0, 0.0, 0)
  else (wait /. float_of_int n, hold /. float_of_int n, n)

let reset_lock_stats t =
  Hashtbl.iter (fun _ m -> Mutex_sim.reset_stats m) t.locks;
  Hashtbl.iter
    (fun _ c ->
      Hashtbl.iter (fun _ m -> Mutex_sim.reset_stats m) c.instances;
      c.retired.r_wait <- 0.0;
      c.retired.r_hold <- 0.0;
      c.retired_n <- 0)
    t.classes

let top_locks_by_wait t ~n =
  let interned =
    Hashtbl.fold
      (fun name m acc ->
        (name, Mutex_sim.total_wait m, Mutex_sim.total_hold m, Mutex_sim.acquisitions m)
        :: acc)
      t.locks []
  in
  Hashtbl.fold
    (fun name c acc ->
      let w, h, k = class_totals c in
      (name, w, h, k) :: acc)
    t.classes interned
  |> List.sort (fun (_, a, _, _) (_, b, _, _) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < n)

let pool_cpu t ~pool dt =
  if dt > 0.0 then
    Cpu.compute t.cpu ~tenant:(Cgroup.name pool) ~eligible:(Cgroup.cores pool) dt

let flusher_backoff = 2.0e-3

let kernel_cpu t dt =
  if dt > 0.0 then
    Cpu.compute_background t.cpu ~tenant:kernel_tenant ~eligible:t.activated
      ~backoff:flusher_backoff dt

let syscall t ~pool f =
  let c = pool_ctrs t ~pool in
  Obs.incr c.syscalls_c;
  Obs.add c.mode_switches_c 2.0;
  pool_cpu t ~pool (2.0 *. t.costs.mode_switch);
  f ()

let context_switches t ~pool n =
  if n > 0 then begin
    Obs.add (pool_ctrs t ~pool).context_switches_c (float_of_int n);
    pool_cpu t ~pool (float_of_int n *. t.costs.context_switch)
  end

let copy t ~pool ~bytes =
  if bytes > 0 then pool_cpu t ~pool (float_of_int bytes *. t.costs.copy_per_byte)

let blocking_io t ~pool f =
  context_switches t ~pool 2;
  let started = Engine.now t.engine in
  let span =
    Trace.enter t.engine ~layer:"kernel" ~name:"blocking_io"
      ~key:(Cgroup.name pool) ~phase:Service
  in
  let r = f () in
  Trace.exit t.engine span;
  let elapsed = Engine.now t.engine -. started in
  Obs.add (pool_ctrs t ~pool).io_wait_c elapsed;
  r

(* The writeback machinery mirrors Linux: a coordinator scans the mounts
   and turns dirty state into chunked flush jobs; each mount (bdi) has
   ONE ordered flusher pipeline, whose work items execute on per-CPU
   kworkers — modelled by rotating each successive chunk onto the next
   activated core and acquiring it at background priority.  When the
   neighbours' cores are idle the pipeline streams at full speed ("the
   kernel steals the cores"); when every activated core is busy with
   reserved work, each chunk crawls and the whole pipeline — and with it
   every throttled writer — collapses (Fig. 1a). *)

(* in-flight I/O window of one bdi pipeline (nr_requests-style bound) *)
let bdi_window = 32

let mount_queue t m =
  let name = Page_cache.mount_name m in
  match Hashtbl.find_opt t.mount_queues name with
  | Some q -> q
  | None ->
      let q = Channel.create t.engine ~capacity:1024 in
      Hashtbl.add t.mount_queues name q;
      let rotor = ref 0 in
      let window =
        Semaphore_sim.create t.engine ~name:("bdi:" ^ name) ~value:bdi_window
      in
      (* the CephFS client writes back over a couple of concurrent OSD
         sessions: two submission workers share the mount's pipeline *)
      for w = 0 to 1 do
        Engine.spawn t.engine ~name:(Printf.sprintf "bdi-flush:%s:%d" name w)
          (fun () ->
            while true do
              let job = Channel.get q in
              Obs.incr t.flusher_runs_c;
              let cores = t.activated in
              let core = cores.(!rotor mod Array.length cores) in
              incr rotor;
              (* the submission CPU runs on whichever per-CPU kworker the
                 item landed on *)
              Cpu.compute_background t.cpu ~tenant:kernel_tenant
                ~eligible:[| core |] ~backoff:flusher_backoff
                (float_of_int job.job_bytes *. t.costs.flush_per_byte);
              (* the backing I/O itself completes asynchronously *)
              Semaphore_sim.acquire window;
              Engine.fork ~name:("bdi-io:" ^ name) (fun () ->
                  let span =
                    Trace.enter t.engine ~layer:"kernel" ~name:"bdi_flush"
                      ~key:name ~phase:Service
                  in
                  Page_cache.run_flush job.job_file ~bytes:job.job_bytes;
                  Page_cache.writeback_complete t.page_cache
                    (Page_cache.mount_of job.job_file) ~bytes:job.job_bytes;
                  Obs.add t.bytes_flushed_c (float_of_int job.job_bytes);
                  Trace.exit t.engine span;
                  Semaphore_sim.release window)
            done)
      done;
      q

let enqueue_jobs t m work =
  let q = mount_queue t m in
  List.iter
    (fun (file, bytes) ->
      let rec split remaining =
        if remaining > 0 then begin
          let n = min remaining flush_chunk in
          Channel.put q { job_file = file; job_bytes = n };
          split (remaining - n)
        end
      in
      split bytes)
    work

let start_flushers t =
  if not t.flushers_started then begin
    t.flushers_started <- true;
    Engine.spawn t.engine ~name:"kflushd" (fun () ->
        let poll = Float.min 0.1 t.writeback in
        let last_scan = ref neg_infinity in
        while true do
          Engine.sleep poll;
          let now = Engine.now t.engine in
          let periodic = now -. !last_scan >= t.writeback in
          if periodic then last_scan := now;
          (* the periodic scan is a quiescent point for the whole cache:
             sweep its conservation laws before queueing new work *)
          if periodic then Page_cache.check_invariants t.page_cache;
          List.iter
            (fun m ->
              if periodic then
                enqueue_jobs t m
                  (Page_cache.take_dirty t.page_cache m
                     ~older_than:(now -. t.expire) ~max_bytes:max_int);
              let dirty = Page_cache.dirty_bytes t.page_cache m in
              let background = Page_cache.background_threshold m in
              if dirty > background then
                enqueue_jobs t m
                  (Page_cache.take_dirty t.page_cache m ~older_than:now
                     ~max_bytes:(dirty - background)))
            (Page_cache.mounts t.page_cache)
        done)
  end

let fsync_file t ~pool file =
  let work = Page_cache.flush_file file in
  List.iter
    (fun (f, bytes) ->
      pool_cpu t ~pool (float_of_int bytes *. t.costs.flush_per_byte);
      blocking_io t ~pool (fun () -> Page_cache.run_flush f ~bytes);
      Page_cache.writeback_complete t.page_cache (Page_cache.mount_of f) ~bytes)
    work
