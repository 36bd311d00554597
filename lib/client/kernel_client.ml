open Danaus_sim
open Danaus_kernel
open Danaus_ceph

type t = {
  kernel : Kernel.t;
  cluster : Cluster.t;
  kc_name : string;
  mount : Page_cache.mount;
  readahead : int;
  (* open files and per-inode state (size, writeback cursor, fetch
     lock, i_mutex, page-cache file), evicted with the inode *)
  table : Fd_table.t;
  (* the mount's inode mutexes: one lock class, an instance per inode *)
  i_mutexes : Kernel.lock_class;
  (* resolved-once directory mutexes: building "i_mutex_dir:<mount>:<dir>"
     and hashing it on every create/unlink is pure overhead *)
  dir_locks : (string, Mutex_sim.t) Hashtbl.t;
  dcache_lock : Mutex_sim.t;
  i_mutex_class : Mutex_sim.t;
  attr_lease : float; (* dcache revalidation window (§3.4) *)
  (* the kclient's per-mount MDS session mutex (s_mutex): held across
     every metadata round trip, serialising the mount's metadata ops —
     cheap for one container, painful for 32 clones sharing the mount *)
  session_lock : Mutex_sim.t;
  (* fault handling: seeded backoff state and the crash flag flipped by
     Container_engine when the kernel client wedges (host-wide) *)
  rng : Rng.t;
  retry : Retry.counters;
  flush_fail_c : Obs.counter;
  mutable crashed : bool;
}

let create kernel ~cluster ~name ~max_dirty ?mem_limit
    ?(readahead = 4 * 1024 * 1024) () =
  let i_mutexes = Kernel.lock_class kernel ("i_mutex:" ^ name) in
  {
    kernel;
    cluster;
    kc_name = name;
    mount =
      Page_cache.add_mount (Kernel.page_cache kernel) ~name ~max_dirty ?mem_limit ();
    readahead;
    table =
      Fd_table.create
        ~on_evict:(fun i -> Kernel.retire_lock i_mutexes i.Fd_table.ino)
        ();
    i_mutexes;
    dir_locks = Hashtbl.create 16;
    dcache_lock = Kernel.lock kernel "vfs:dcache";
    i_mutex_class = Kernel.lock kernel "cephfs:i_mutex_key";
    (* the kclient holds MDS capabilities: cached attributes stay valid
       for minutes unless revoked, unlike a user client's short lease *)
    attr_lease = 60.0;
    session_lock =
      Mutex_sim.create (Kernel.engine kernel) ~name:(name ^ ".s_mutex");
    rng =
      Rng.create (String.fold_left (fun a c -> (a * 131) + Char.code c) 11 name);
    retry = Retry.counters (Engine.obs (Kernel.engine kernel)) ~key:name;
    flush_fail_c =
      Obs.counter
        (Engine.obs (Kernel.engine kernel))
        ~layer:"client" ~name:"flush_failures" ~key:name;
    crashed = false;
  }

let name t = t.kc_name
let crash t = t.crashed <- true
let restart t = t.crashed <- false
let crashed t = t.crashed
let inode_count t = Fd_table.inode_count t.table

let fetch_lock t (i : Fd_table.inode) =
  match i.fetch_lock with
  | Some m -> m
  | None ->
      let m = Mutex_sim.create (Kernel.engine t.kernel) ~name:(t.kc_name ^ ".fetch") in
      i.fetch_lock <- Some m;
      m

let inode_lock t (i : Fd_table.inode) =
  match i.lock with
  | Some m -> m
  | None ->
      let m = Kernel.class_lock t.i_mutexes i.ino in
      i.lock <- Some m;
      m

let dir_lock t parent =
  match Hashtbl.find t.dir_locks parent with
  | m -> m
  | exception Not_found ->
      let m = Kernel.lock t.kernel ("i_mutex_dir:" ^ t.kc_name ^ ":" ^ parent) in
      Hashtbl.add t.dir_locks parent m;
      m

(* Host-wide kernel locks: the dcache lock and the superblock inode-mutex
   class shared by every CephFS mount on the host.  The CPU of the locked
   section is charged before acquiring; the holds themselves are short
   wall-clock sections (the real locks are fine-grained spinlocks and are
   never held across a scheduler queue). *)
let with_vfs_locks t ~pool f =
  let k = t.kernel in
  let costs = Kernel.costs k in
  Kernel.pool_cpu k ~pool (2.0 *. costs.lock_hold);
  Mutex_sim.with_lock t.dcache_lock (fun () -> Engine.sleep costs.lock_hold);
  Mutex_sim.with_lock t.i_mutex_class (fun () -> Engine.sleep costs.lock_hold);
  f ()

let pc_file t (i : Fd_table.inode) =
  match i.file with
  | Some f -> f
  | None ->
      let k = t.kernel in
      let ino = i.ino in
      let f =
        Page_cache.file (Kernel.page_cache k) t.mount
          ~key:(t.kc_name ^ ":" ^ string_of_int ino)
          ~flush:(fun ~bytes ->
            (* runs in kernel flusher context: brief superblock-class
               lock, then the network write *)
            Mutex_sim.with_lock t.i_mutex_class (fun () ->
                Engine.sleep (Kernel.costs k).lock_hold);
            let off = i.cursor in
            i.cursor <- i.cursor + bytes;
            let r =
              Retry.with_retry ~policy:Retry.net_policy ~rng:t.rng
                ~counters:t.retry
                ~transient:(fun _ -> true)
                (fun () -> Cluster.write_range t.cluster ~ino ~off ~len:bytes)
            in
            match r with Ok () -> () | Error _ -> Obs.incr t.flush_fail_c)
      in
      i.file <- Some f;
      f

let put_attr t path attr =
  Fd_table.put_attr t.table path attr ~now:(Engine.now (Kernel.engine t.kernel))

(* One metadata request to the MDS: the mount's session mutex serialises
   request submission (mdsc), but the round trips themselves pipeline. *)
let mds_op t ~pool f =
  Mutex_sim.with_lock t.session_lock (fun () -> Engine.sleep 20.0e-6);
  Kernel.blocking_io t.kernel ~pool f

(* Component-wise resolution: one negative dentry for the deepest
   missing ancestor answers every lookup beneath it (VFS semantics). *)
let cache_negative_ancestor t path =
  let ns = Cluster.namespace t.cluster in
  let rec first_missing p =
    let parent = Fspath.parent p in
    if Fspath.is_root p || Namespace.lookup ns parent <> None then p
    else first_missing parent
  in
  put_attr t (first_missing path) None

let rec has_negative_ancestor t ~now path =
  if Fspath.is_root path then false
  else
    match Fd_table.get_attr t.table path ~now ~lease:t.attr_lease with
    | Some None -> true
    | Some (Some _) -> false
    | None -> has_negative_ancestor t ~now (Fspath.parent path)

let rec drop_negative_ancestors t path =
  if not (Fspath.is_root path) then begin
    (match
       Fd_table.get_attr t.table path
         ~now:(Engine.now (Kernel.engine t.kernel))
         ~lease:t.attr_lease
     with
    | Some None -> Fd_table.drop_attr t.table path
    | Some (Some _) | None -> ());
    drop_negative_ancestors t (Fspath.parent path)
  end

let stat_cached t ~pool path =
  let k = t.kernel in
  Kernel.pool_cpu k ~pool (Kernel.costs k).page_cache_op;
  let now = Engine.now (Kernel.engine k) in
  match Fd_table.get_attr t.table path ~now ~lease:t.attr_lease with
  | Some cached -> cached
  | None ->
      if has_negative_ancestor t ~now (Fspath.parent path) then None
      else begin
        let attr = mds_op t ~pool (fun () -> Cluster.lookup t.cluster path) in
        put_attr t path attr;
        (match attr with
        | Some a when not a.Namespace.is_dir ->
            (* keep locally-written sizes monotone vs a lagging MDS *)
            let i = Fd_table.inode t.table a.Namespace.ino in
            i.size <- Stdlib.max i.size a.Namespace.size
        | Some _ -> ()
        | None -> cache_negative_ancestor t path);
        attr
      end

let truncate_file t ino =
  let i = Fd_table.inode t.table ino in
  let file = pc_file t i in
  Page_cache.discard_dirty file;
  Page_cache.invalidate file;
  i.size <- 0

let do_create t ~pool path =
  match mds_op t ~pool (fun () -> Cluster.create_file t.cluster path) with
  | Ok attr ->
      put_attr t path (Some attr);
      drop_negative_ancestors t (Fspath.parent path);
      (Fd_table.inode t.table attr.Namespace.ino).size <- 0;
      Ok attr
  | Error Namespace.Exists -> begin
      Fd_table.drop_attr t.table path;
      match stat_cached t ~pool path with
      | Some attr -> Ok attr
      | None -> Error Namespace.Exists
    end
  | Error Namespace.No_parent -> begin
      match mds_op t ~pool (fun () -> Cluster.mkdir_p t.cluster (Fspath.parent path)) with
      | Error e -> Error e
      | Ok _ -> begin
          match mds_op t ~pool (fun () -> Cluster.create_file t.cluster path) with
          | Ok attr ->
              put_attr t path (Some attr);
              drop_negative_ancestors t (Fspath.parent path);
              (Fd_table.inode t.table attr.Namespace.ino).size <- 0;
              Ok attr
          | Error _ as e -> e
        end
    end
  | Error _ as e -> e

let open_file t ~pool path (flags : Client_intf.flags) =
  let k = t.kernel in
  Kernel.syscall k ~pool (fun () ->
      with_vfs_locks t ~pool (fun () ->
          Kernel.pool_cpu k ~pool (Kernel.costs k).vfs_op;
          let path = Fspath.normalize path in
          match stat_cached t ~pool path with
          | Some a when a.Namespace.is_dir -> Error (Client_intf.Fs Namespace.Is_dir)
          | Some a ->
              if flags.trunc then truncate_file t a.Namespace.ino;
              Ok (Fd_table.insert t.table ~path ~ino:a.Namespace.ino ~flags)
          | None ->
              if not flags.create then Error (Client_intf.Fs Namespace.No_entry)
              else begin
                Mutex_sim.with_lock (dir_lock t (Fspath.parent path)) (fun () ->
                    match do_create t ~pool path with
                    | Error e -> Error (Client_intf.Fs e)
                    | Ok attr ->
                        Ok (Fd_table.insert t.table ~path ~ino:attr.Namespace.ino ~flags))
              end))

let push_size t ~pool (entry : Fd_table.entry) =
  if entry.written then begin
    let size = entry.inode.size in
    ignore (mds_op t ~pool (fun () -> Cluster.set_size t.cluster entry.path size));
    put_attr t entry.path
      (Some { Namespace.ino = entry.inode.ino; size; is_dir = false })
  end

let close t ~pool fd =
  Kernel.syscall t.kernel ~pool (fun () ->
      match Fd_table.find t.table fd with
      | None -> ()
      | Some entry ->
          push_size t ~pool entry;
          Fd_table.remove t.table fd)

let read t ~pool fd ~off ~len =
  let k = t.kernel in
  match Fd_table.find t.table fd with
  | None -> Error Client_intf.Bad_fd
  | Some entry ->
      let size = entry.inode.size in
      let len = Stdlib.max 0 (Stdlib.min len (size - off)) in
      if len = 0 then Ok 0
      else
        Fd_table.with_held t.table entry @@ fun () ->
        Kernel.syscall k ~pool (fun () ->
            with_vfs_locks t ~pool (fun () ->
                Kernel.pool_cpu k ~pool (Kernel.costs k).page_cache_op);
            let file = pc_file t entry.inode in
            let fetch_failed = ref false in
            (if Page_cache.missing file ~off ~len > 0 then begin
               let fl = fetch_lock t entry.inode in
               Mutex_sim.with_lock fl (fun () ->
                   let miss = Page_cache.missing file ~off ~len in
                   if miss > 0 then begin
                     let sequential = off = entry.last_end in
                     let ra =
                       if sequential then
                         Stdlib.min t.readahead (Stdlib.max 0 (size - (off + len)))
                       else 0
                     in
                     let r =
                       Retry.with_retry ~policy:Retry.net_policy ~rng:t.rng
                         ~counters:t.retry
                         ~transient:(fun _ -> true)
                         (fun () ->
                           Kernel.blocking_io k ~pool (fun () ->
                               Cluster.read_range t.cluster ~ino:entry.inode.ino ~off
                                 ~len:(miss + ra)))
                     in
                     match r with
                     | Ok () -> Page_cache.insert_clean file ~off ~len:(len + ra)
                     | Error e ->
                         (match e with
                         | Cluster.No_replica _ ->
                             Retry.note_no_replica t.retry
                         | _ -> ());
                         fetch_failed := true
                   end)
             end);
            if !fetch_failed then Error Client_intf.Unavailable
            else begin
              Kernel.copy k ~pool ~bytes:len;
              entry.last_end <- off + len;
              Ok len
            end)

let write t ~pool fd ~off ~len =
  let k = t.kernel in
  match Fd_table.find t.table fd with
  | None -> Error Client_intf.Bad_fd
  | Some entry ->
      if not entry.flags.wr then Error Client_intf.Bad_fd
      else
        Fd_table.with_held t.table entry @@ fun () ->
        Kernel.syscall k ~pool (fun () ->
            with_vfs_locks t ~pool (fun () -> ());
            let i = entry.inode in
            let file = pc_file t i in
            Mutex_sim.with_lock (inode_lock t i) (fun () ->
                Kernel.copy k ~pool ~bytes:len;
                Kernel.pool_cpu k ~pool (Kernel.costs k).page_cache_op;
                Page_cache.write file ~off ~len);
            if off + len > i.size then i.size <- off + len;
            entry.written <- true;
            (* balance_dirty_pages: wait for the shared flushers *)
            Page_cache.throttle file;
            Ok ())

let append t ~pool fd ~len =
  match Fd_table.find t.table fd with
  | None -> Error Client_intf.Bad_fd
  | Some entry ->
      write t ~pool fd ~off:entry.inode.size ~len

let fsync t ~pool fd =
  match Fd_table.find t.table fd with
  | None -> Error Client_intf.Bad_fd
  | Some entry ->
      Fd_table.with_held t.table entry @@ fun () ->
      Kernel.syscall t.kernel ~pool (fun () ->
          let before = Obs.counter_value t.flush_fail_c in
          Kernel.fsync_file t.kernel ~pool (pc_file t entry.inode);
          push_size t ~pool entry;
          if Obs.counter_value t.flush_fail_c > before then
            Error Client_intf.Unavailable
          else Ok ())

let fd_size t fd =
  match Fd_table.find t.table fd with
  | None -> Error Client_intf.Bad_fd
  | Some entry -> Ok entry.inode.size

let stat t ~pool path =
  Kernel.syscall t.kernel ~pool (fun () ->
      with_vfs_locks t ~pool (fun () ->
          Kernel.pool_cpu t.kernel ~pool (Kernel.costs t.kernel).vfs_op;
          match stat_cached t ~pool (Fspath.normalize path) with
          | Some a -> Ok a
          | None -> Error (Client_intf.Fs Namespace.No_entry)))

let mkdir_p t ~pool path =
  Kernel.syscall t.kernel ~pool (fun () ->
      with_vfs_locks t ~pool (fun () ->
          let path = Fspath.normalize path in
          match mds_op t ~pool (fun () -> Cluster.mkdir_p t.cluster path) with
          | Ok attr ->
              put_attr t path (Some attr);
              drop_negative_ancestors t path;
              Ok ()
          | Error e -> Error (Client_intf.Fs e)))

let readdir t ~pool path =
  Kernel.syscall t.kernel ~pool (fun () ->
      with_vfs_locks t ~pool (fun () ->
          match mds_op t ~pool (fun () -> Cluster.readdir t.cluster path) with
          | Ok names -> Ok names
          | Error e -> Error (Client_intf.Fs e)))

let unlink t ~pool path =
  let k = t.kernel in
  Kernel.syscall k ~pool (fun () ->
      with_vfs_locks t ~pool (fun () ->
          let path = Fspath.normalize path in
          match stat_cached t ~pool path with
          | None -> Error (Client_intf.Fs Namespace.No_entry)
          | Some a -> begin
              Mutex_sim.with_lock (dir_lock t (Fspath.parent path)) (fun () ->
                  match mds_op t ~pool (fun () -> Cluster.unlink t.cluster path) with
                  | Ok () ->
                      put_attr t path None;
                      if not a.Namespace.is_dir then begin
                        truncate_file t a.Namespace.ino;
                        Fd_table.unlink t.table a.Namespace.ino;
                        Kernel.blocking_io k ~pool (fun () ->
                            Cluster.delete_range t.cluster ~ino:a.Namespace.ino
                              ~size:a.Namespace.size)
                      end;
                      Ok ()
                  | Error e -> Error (Client_intf.Fs e))
            end))

let rename t ~pool ~src ~dst =
  Kernel.syscall t.kernel ~pool (fun () ->
      with_vfs_locks t ~pool (fun () ->
          let src = Fspath.normalize src and dst = Fspath.normalize dst in
          match mds_op t ~pool (fun () -> Cluster.rename t.cluster ~src ~dst) with
          | Ok () ->
              (match
                 Fd_table.get_attr t.table src
                   ~now:(Engine.now (Kernel.engine t.kernel)) ~lease:t.attr_lease
               with
              | Some attr -> put_attr t dst attr
              | None -> ());
              put_attr t src None;
              Ok ()
          | Error e -> Error (Client_intf.Fs e)))

let iface t =
  (* a wedged kernel client fails every mount on the host until the
     supervisor remounts it *)
  let g f = if t.crashed then Error Client_intf.Crashed else f () in
  {
    Client_intf.name = t.kc_name;
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
    (* page-cache memory is charged to the host, not the client *)
    memory_used = (fun () -> 0);
    ext = Client_intf.No_ext;
  }
