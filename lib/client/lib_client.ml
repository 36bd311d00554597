open Danaus_sim
open Danaus_hw
open Danaus_kernel
open Danaus_ceph

type config = {
  cache_bytes : int;
  dirty_ratio : float;
  readahead : int;
  writeback_interval : float;
  expire_interval : float;
  fine_grained_locking : bool;
  attr_lease : float;
  write_through : bool;
  breaker : Danaus_qos.Breaker.config option;
}

let default_config ~cache_bytes =
  {
    cache_bytes;
    dirty_ratio = 0.5;
    readahead = 4 * 1024 * 1024;
    writeback_interval = 1.0;
    expire_interval = 5.0;
    fine_grained_locking = false;
    attr_lease = 1.0;
    write_through = false;
    breaker = None;
  }

type t = {
  engine : Engine.t;
  cpu : Cpu.t;
  costs : Costs.t;
  cluster : Cluster.t;
  pool : Cgroup.t;
  ctx_switch_c : Obs.counter;
  config : config;
  name : string;
  lock : Mutex_sim.t;
  cache : Page_cache.t;
  cache_mount : Page_cache.mount;
  cache_mem : Memory.t;
  (* open files and per-inode state (size, writeback cursor, fetch
     lock, cache lock, cache file), evicted with the inode *)
  table : Fd_table.t;
  flush_window : Semaphore_sim.t;
  mutable started : bool;
  (* fault handling: seeded backoff state and the crash flag flipped by
     Container_engine when the process hosting this client dies *)
  rng : Rng.t;
  retry : Retry.counters;
  flush_fail_c : Obs.counter;
  mutable crashed : bool;
  (* overload protection: optional circuit breaker over the backend
     data path (reads/writes to the cluster), keyed by the pool *)
  breaker : Danaus_qos.Breaker.t option;
}

let flush_chunk = 4 * 1024 * 1024

let seed_of_name name = String.fold_left (fun a c -> (a * 131) + Char.code c) 7 name

let create engine ~cpu ~costs ~cluster ~pool ~config ~name =
  let cache_mem = Memory.create ~name:(name ^ ".ulcc") () in
  let cache =
    Page_cache.create engine ~mem:cache_mem ~limit:config.cache_bytes
      ~block:(64 * 1024)
  in
  let cache_mount =
    Page_cache.add_mount cache ~name:(name ^ ".data")
      ~max_dirty:
        (Stdlib.max 1
           (int_of_float (config.dirty_ratio *. float_of_int config.cache_bytes)))
      ()
  in
  {
    engine;
    cpu;
    costs;
    cluster;
    pool;
    ctx_switch_c =
      Obs.counter (Engine.obs engine) ~layer:"client" ~name:"context_switches"
        ~key:(Cgroup.name pool);
    config;
    name;
    lock = Mutex_sim.create engine ~name:(name ^ ".client_lock");
    cache;
    cache_mount;
    cache_mem;
    table = Fd_table.create ();
    flush_window =
      Semaphore_sim.create engine ~name:(name ^ ".flush_window") ~value:8;
    started = false;
    rng = Rng.create (seed_of_name name);
    retry = Retry.counters (Engine.obs engine) ~key:(Cgroup.name pool);
    flush_fail_c =
      Obs.counter (Engine.obs engine) ~layer:"client" ~name:"flush_failures"
        ~key:(Cgroup.name pool);
    crashed = false;
    breaker =
      Option.map
        (fun c ->
          Danaus_qos.Breaker.create ~config:c engine ~key:(Cgroup.name pool))
        config.breaker;
  }

let crash t = t.crashed <- true
let restart t = t.crashed <- false
let crashed t = t.crashed
let inode_count t = Fd_table.inode_count t.table

let client_lock t = t.lock
let cache_used t = Memory.used t.cache_mem
let dirty_bytes t = Page_cache.dirty_bytes t.cache t.cache_mount

(* User-level CPU on the owning pool's reserved cores. *)
let user_cpu t dt =
  if dt > 0.0 then
    Cpu.compute t.cpu ~tenant:(Cgroup.name t.pool) ~eligible:(Cgroup.cores t.pool) dt

(* Network operations go through kernel sockets: two mode switches to
   send/receive plus a blocking context-switch pair. *)
let net_op t f =
  user_cpu t ((2.0 *. t.costs.mode_switch) +. (2.0 *. t.costs.context_switch));
  Obs.add t.ctx_switch_c 2.0;
  f ()

(* Backend data-path ops (cluster reads/writes) run through the pool's
   circuit breaker when one is configured: while the breaker is open,
   calls fail fast without paying the socket round trip, so retry loops
   stop hammering a downed backend before mark-down catches up. *)
let backend t f =
  match t.breaker with
  | None -> net_op t f
  | Some b ->
      Danaus_qos.Breaker.guard b
        ~on_open:(Cluster.No_replica "circuit-open")
        (fun () -> net_op t f)

(* Per-inode fetch lock: concurrent readers of the same file fetch a
   missing range once (page-lock single-flight semantics). *)
let fetch_lock t (i : Fd_table.inode) =
  match i.fetch_lock with
  | Some m -> m
  | None ->
      let m = Mutex_sim.create t.engine ~name:(t.name ^ ".fetch") in
      i.fetch_lock <- Some m;
      m

(* The lock guarding cache operations on an inode: the coarse global
   client_lock of libcephfs by default, a per-inode lock when the client
   is configured with fine-grained locking (the refactoring the paper
   leaves as future work, S6.3.2/S9). *)
let cache_lock t (i : Fd_table.inode) =
  if not t.config.fine_grained_locking then t.lock
  else
    match i.lock with
    | Some m -> m
    | None ->
        let m = Mutex_sim.create t.engine ~name:(t.name ^ ".ino_lock") in
        i.lock <- Some m;
        m

let cache_file t (i : Fd_table.inode) =
  match i.file with
  | Some f -> f
  | None ->
      let ino = i.ino in
      let f =
        Page_cache.file t.cache t.cache_mount ~key:(string_of_int ino)
          ~flush:(fun ~bytes ->
            let off = i.cursor in
            i.cursor <- i.cursor + bytes;
            let r =
              Trace.with_span t.engine ~layer:"client" ~name:"flush"
                ~key:(Cgroup.name t.pool) ~phase:Service (fun () ->
                  Retry.with_retry ~policy:Retry.net_policy ~rng:t.rng
                    ~counters:t.retry
                    ~transient:(fun _ -> true)
                    (fun () ->
                      backend t (fun () ->
                          Cluster.write_range t.cluster ~ino ~off ~len:bytes)))
            in
            match r with Ok () -> () | Error _ -> Obs.incr t.flush_fail_c)
      in
      i.file <- Some f;
      f

(* Flush dirty work selected by the caller: writeback CPU is charged to
   the pool serially, but the network round trips of the 4 MB chunks are
   pipelined within a bounded in-flight window.  [wait] makes the call
   return only once every chunk reached the backend (fsync and
   write-through semantics); without it the flush is fire-and-forget
   (background writeback). *)
let do_flush ?(wait = false) t work =
  let wg = Waitgroup.create t.engine in
  List.iter
    (fun (file, bytes) ->
      let rec submit remaining =
        if remaining > 0 then begin
          let n = Stdlib.min flush_chunk remaining in
          user_cpu t (float_of_int n *. t.costs.user_flush_per_byte);
          Semaphore_sim.acquire t.flush_window;
          Waitgroup.add wg;
          Engine.fork ~name:(t.name ^ ".flush-io") (fun () ->
              Page_cache.run_flush file ~bytes:n;
              Page_cache.writeback_complete t.cache t.cache_mount ~bytes:n;
              Semaphore_sim.release t.flush_window;
              Waitgroup.finish wg);
          submit (remaining - n)
        end
      in
      submit bytes)
    work;
  if wait then Waitgroup.wait wg

(* Writer-side throttling: once over the dirty limit, the writer itself
   flushes chunks until the cache is back under it. *)
let throttle_writeback t =
  let max_dirty =
    Stdlib.max 1
      (int_of_float (t.config.dirty_ratio *. float_of_int t.config.cache_bytes))
  in
  while Page_cache.dirty_bytes t.cache t.cache_mount > max_dirty do
    let work =
      Page_cache.take_dirty t.cache t.cache_mount
        ~older_than:(Engine.now t.engine) ~max_bytes:flush_chunk
    in
    match work with
    | [] ->
        (* everything is already under writeback: wait for completions *)
        Page_cache.throttle_mount t.cache t.cache_mount
    | work -> do_flush t work
  done

let start t =
  if not t.started then begin
    t.started <- true;
    Engine.spawn t.engine ~name:(t.name ^ ".writeback") (fun () ->
        while true do
          Engine.sleep t.config.writeback_interval;
          (* a crashed process flushes nothing until it is restarted *)
          if not t.crashed then begin
            let now = Engine.now t.engine in
            let work =
              Page_cache.take_dirty t.cache t.cache_mount
                ~older_than:(now -. t.config.expire_interval) ~max_bytes:max_int
            in
            do_flush t work
          end
        done)
  end

(* ------------------------------------------------------------------ *)
(* Metadata *)

let put_attr t path attr =
  Fd_table.put_attr t.table path attr ~now:(Engine.now t.engine)

(* The MDS resolves lookups component-wise: a miss tells the client the
   deepest missing ancestor, and that single negative dentry answers
   every path beneath it until it expires or something is created. *)
let cache_negative_ancestor t path =
  let ns = Cluster.namespace t.cluster in
  let rec first_missing p =
    let parent = Fspath.parent p in
    if Fspath.is_root p || Namespace.lookup ns parent <> None then p
    else first_missing parent
  in
  put_attr t (first_missing path) None

let rec has_negative_ancestor t ~now ~lease path =
  if Fspath.is_root path then false
  else
    match Fd_table.get_attr t.table path ~now ~lease with
    | Some None -> true
    | Some (Some _) -> false
    | None -> has_negative_ancestor t ~now ~lease (Fspath.parent path)

(* A successful create makes every cached ancestor negative stale. *)
let rec drop_negative_ancestors t path =
  if not (Fspath.is_root path) then begin
    (match
       Fd_table.get_attr t.table path ~now:(Engine.now t.engine)
         ~lease:t.config.attr_lease
     with
    | Some None -> Fd_table.drop_attr t.table path
    | Some (Some _) | None -> ());
    drop_negative_ancestors t (Fspath.parent path)
  end

let stat_uncached t path =
  let attr = net_op t (fun () -> Cluster.lookup t.cluster path) in
  put_attr t path attr;
  (match attr with
  | Some a when not a.Namespace.is_dir ->
      (* never shrink below the locally-written size: our own buffered
         writes are ahead of the MDS until they are flushed *)
      let i = Fd_table.inode t.table a.Namespace.ino in
      i.size <- Stdlib.max i.size a.Namespace.size
  | Some _ -> ()
  | None -> cache_negative_ancestor t path);
  attr

let stat_cached t path =
  user_cpu t t.costs.page_cache_op;
  let now = Engine.now t.engine in
  let lease = t.config.attr_lease in
  match Fd_table.get_attr t.table path ~now ~lease with
  | Some cached -> cached
  | None ->
      if has_negative_ancestor t ~now ~lease (Fspath.parent path) then None
      else stat_uncached t path

(* ------------------------------------------------------------------ *)
(* File operations *)

let lookup_fd t fd = Fd_table.find t.table fd

let do_create t path =
  match net_op t (fun () -> Cluster.create_file t.cluster path) with
  | Ok attr ->
      put_attr t path (Some attr);
      drop_negative_ancestors t (Fspath.parent path);
      (Fd_table.inode t.table attr.Namespace.ino).size <- 0;
      Ok attr
  | Error Namespace.Exists -> begin
      (* lost a create race with another thread: adopt the winner's file *)
      match stat_uncached t path with
      | Some attr -> Ok attr
      | None -> Error Namespace.Exists
    end
  | Error Namespace.No_parent -> begin
      (* create missing ancestors, then retry once *)
      match net_op t (fun () -> Cluster.mkdir_p t.cluster (Fspath.parent path)) with
      | Error e -> Error e
      | Ok _ -> begin
          match net_op t (fun () -> Cluster.create_file t.cluster path) with
          | Ok attr ->
              put_attr t path (Some attr);
              drop_negative_ancestors t (Fspath.parent path);
              (Fd_table.inode t.table attr.Namespace.ino).size <- 0;
              Ok attr
          | Error _ as e -> e
        end
    end
  | Error _ as e -> e

let truncate_file t ino =
  (* cached contents are obsolete: discard dirty data and drop blocks *)
  let i = Fd_table.inode t.table ino in
  let file = cache_file t i in
  Page_cache.discard_dirty file;
  Page_cache.invalidate file;
  i.size <- 0

let open_file t ~pool:_ path (flags : Client_intf.flags) =
  user_cpu t t.costs.vfs_op;
  let path = Fspath.normalize path in
  match stat_cached t path with
  | Some a when a.Namespace.is_dir -> Error (Client_intf.Fs Namespace.Is_dir)
  | Some a ->
      if flags.trunc then truncate_file t a.Namespace.ino;
      Ok (Fd_table.insert t.table ~path ~ino:a.Namespace.ino ~flags)
  | None ->
      if not flags.create then Error (Client_intf.Fs Namespace.No_entry)
      else begin
        match do_create t path with
        | Error e -> Error (Client_intf.Fs e)
        | Ok attr ->
            Ok (Fd_table.insert t.table ~path ~ino:attr.Namespace.ino ~flags)
      end

let push_size t of_ =
  if of_.Fd_table.written then begin
    let size = of_.Fd_table.inode.size in
    ignore (net_op t (fun () -> Cluster.set_size t.cluster of_.Fd_table.path size));
    put_attr t of_.Fd_table.path
      (Some { Namespace.ino = of_.Fd_table.inode.ino; size; is_dir = false })
  end

let close t ~pool:_ fd =
  match lookup_fd t fd with
  | None -> ()
  | Some of_ ->
      push_size t of_;
      Fd_table.remove t.table fd

let read t ~pool:_ fd ~off ~len =
  match lookup_fd t fd with
  | None -> Error Client_intf.Bad_fd
  | Some of_ ->
      let size = of_.Fd_table.inode.size in
      let len = Stdlib.max 0 (Stdlib.min len (size - off)) in
      if len = 0 then Ok 0
      else begin
        Fd_table.with_held t.table of_ @@ fun () ->
        user_cpu t t.costs.vfs_op;
        (* with fine-grained locking, cached reads traverse the object
           cache lock-free (per-block granularity); the stock client
           serialises the lookup and the copy under client_lock *)
        let coarse = not t.config.fine_grained_locking in
        if coarse then Mutex_sim.lock t.lock;
        user_cpu t t.costs.page_cache_op;
        let file = cache_file t of_.Fd_table.inode in
        let miss = Page_cache.missing file ~off ~len in
        let fetch_failed = ref false in
        if miss > 0 then begin
          (* fetch misses with the client lock released; the per-inode
             fetch lock makes concurrent readers of the same range fetch
             it once; readahead only for sequential patterns *)
          if coarse then Mutex_sim.unlock t.lock;
          let fl = fetch_lock t of_.Fd_table.inode in
          Mutex_sim.lock fl;
          let miss = Page_cache.missing file ~off ~len in
          if miss > 0 then begin
            let sequential = off = of_.Fd_table.last_end in
            let ra =
              if sequential then
                Stdlib.min t.config.readahead (Stdlib.max 0 (size - (off + len)))
              else 0
            in
            let r =
              Trace.with_span t.engine ~layer:"client" ~name:"fetch"
                ~key:(Cgroup.name t.pool) ~phase:Service (fun () ->
                  Retry.with_retry ~policy:Retry.net_policy ~rng:t.rng
                    ~counters:t.retry
                    ~transient:(fun _ -> true)
                    (fun () ->
                      backend t (fun () ->
                          Cluster.read_range t.cluster ~ino:of_.Fd_table.inode.ino
                            ~off ~len:(miss + ra))))
            in
            match r with
            | Ok () -> Page_cache.insert_clean file ~off ~len:(len + ra)
            | Error e ->
                (match e with
                | Cluster.No_replica _ -> Retry.note_no_replica t.retry
                | _ -> ());
                fetch_failed := true
          end;
          Mutex_sim.unlock fl;
          if not !fetch_failed && coarse then Mutex_sim.lock t.lock
        end;
        if !fetch_failed then Error Client_intf.Unavailable
        else begin
          (* copy out of the cache (under client_lock in the stock client) *)
          user_cpu t (float_of_int len *. t.costs.copy_per_byte);
          if coarse then Mutex_sim.unlock t.lock;
          of_.Fd_table.last_end <- off + len;
          Ok len
        end
      end

let write t ~pool:_ fd ~off ~len =
  match lookup_fd t fd with
  | None -> Error Client_intf.Bad_fd
  | Some of_ ->
      if not of_.Fd_table.flags.wr then Error Client_intf.Bad_fd
      else begin
        Fd_table.with_held t.table of_ @@ fun () ->
        user_cpu t t.costs.vfs_op;
        let i = of_.Fd_table.inode in
        let lk = cache_lock t i in
        Mutex_sim.lock lk;
        user_cpu t (float_of_int len *. t.costs.copy_per_byte);
        let file = cache_file t i in
        Page_cache.write file ~off ~len;
        Mutex_sim.unlock lk;
        if off + len > i.size then i.size <- off + len;
        of_.Fd_table.written <- true;
        if t.config.write_through then begin
          (* per-service consistency setting (§5): push this write's data
             to the backend before returning *)
          let before = Obs.counter_value t.flush_fail_c in
          do_flush ~wait:true t (Page_cache.flush_file file);
          if Obs.counter_value t.flush_fail_c > before then
            Error Client_intf.Unavailable
          else Ok ()
        end
        else begin
          throttle_writeback t;
          Ok ()
        end
      end

let append t ~pool fd ~len =
  match lookup_fd t fd with
  | None -> Error Client_intf.Bad_fd
  | Some of_ ->
      write t ~pool fd ~off:of_.Fd_table.inode.size ~len

let fsync t ~pool:_ fd =
  match lookup_fd t fd with
  | None -> Error Client_intf.Bad_fd
  | Some of_ ->
      Fd_table.with_held t.table of_ @@ fun () ->
      let file = cache_file t of_.Fd_table.inode in
      let before = Obs.counter_value t.flush_fail_c in
      do_flush ~wait:true t (Page_cache.flush_file file);
      push_size t of_;
      if Obs.counter_value t.flush_fail_c > before then
        Error Client_intf.Unavailable
      else Ok ()

let fd_size t fd =
  match lookup_fd t fd with
  | None -> Error Client_intf.Bad_fd
  | Some of_ -> Ok of_.Fd_table.inode.size

let stat t ~pool:_ path =
  user_cpu t t.costs.vfs_op;
  match stat_cached t (Fspath.normalize path) with
  | Some a -> Ok a
  | None -> Error (Client_intf.Fs Namespace.No_entry)

let mkdir_p t ~pool:_ path =
  user_cpu t t.costs.vfs_op;
  let path = Fspath.normalize path in
  match net_op t (fun () -> Cluster.mkdir_p t.cluster path) with
  | Ok attr ->
      put_attr t path (Some attr);
      drop_negative_ancestors t path;
      Ok ()
  | Error e -> Error (Client_intf.Fs e)

let readdir t ~pool:_ path =
  user_cpu t t.costs.vfs_op;
  match net_op t (fun () -> Cluster.readdir t.cluster path) with
  | Ok names -> Ok names
  | Error e -> Error (Client_intf.Fs e)

let unlink t ~pool:_ path =
  user_cpu t t.costs.vfs_op;
  let path = Fspath.normalize path in
  match stat_cached t path with
  | None -> Error (Client_intf.Fs Namespace.No_entry)
  | Some a -> begin
      match net_op t (fun () -> Cluster.unlink t.cluster path) with
      | Ok () ->
          put_attr t path None;
          if not a.Namespace.is_dir then begin
            truncate_file t a.Namespace.ino;
            Fd_table.unlink t.table a.Namespace.ino;
            net_op t (fun () ->
                Cluster.delete_range t.cluster ~ino:a.Namespace.ino
                  ~size:a.Namespace.size)
          end;
          Ok ()
      | Error e -> Error (Client_intf.Fs e)
    end

let rename t ~pool:_ ~src ~dst =
  user_cpu t t.costs.vfs_op;
  let src = Fspath.normalize src and dst = Fspath.normalize dst in
  match net_op t (fun () -> Cluster.rename t.cluster ~src ~dst) with
  | Ok () ->
      (match
         Fd_table.get_attr t.table src ~now:(Engine.now t.engine)
           ~lease:t.config.attr_lease
       with
      | Some attr -> put_attr t dst attr
      | None -> ());
      put_attr t src None;
      Ok ()
  | Error e -> Error (Client_intf.Fs e)

let iface t =
  (* every entry point answers [Crashed] while the hosting process is
     dead; the supervisor's restart clears the flag *)
  let g f = if t.crashed then Error Client_intf.Crashed else f () in
  {
    Client_intf.name = t.name;
    open_file = (fun ~pool path flags -> g (fun () -> open_file t ~pool path flags));
    close = (fun ~pool fd -> if not t.crashed then close t ~pool fd);
    read = (fun ~pool fd ~off ~len -> g (fun () -> read t ~pool fd ~off ~len));
    write = (fun ~pool fd ~off ~len -> g (fun () -> write t ~pool fd ~off ~len));
    append = (fun ~pool fd ~len -> g (fun () -> append t ~pool fd ~len));
    fsync = (fun ~pool fd -> g (fun () -> fsync t ~pool fd));
    fd_size = (fun fd -> g (fun () -> fd_size t fd));
    stat = (fun ~pool path -> g (fun () -> stat t ~pool path));
    mkdir_p = (fun ~pool path -> g (fun () -> mkdir_p t ~pool path));
    readdir = (fun ~pool path -> g (fun () -> readdir t ~pool path));
    unlink = (fun ~pool path -> g (fun () -> unlink t ~pool path));
    rename = (fun ~pool ~src ~dst -> g (fun () -> rename t ~pool ~src ~dst));
    memory_used = (fun () -> cache_used t);
    ext = Client_intf.No_ext;
  }
