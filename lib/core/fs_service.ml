open Danaus_kernel
open Danaus_ceph
open Danaus_client
open Danaus_ipc

type t = {
  kernel : Kernel.t;
  svc_pool : Cgroup.t;
  svc_name : string;
  tr : Transport.t;
  table : Client_intf.t Mount_table.t;
  (* legacy-path descriptor remapping: instances allocate overlapping fd
     numbers, so the dispatching view keeps its own table *)
  legacy_fds : (int, Client_intf.t * Client_intf.fd) Hashtbl.t;
  mutable next_legacy_fd : int;
  mutable legacy : Client_intf.t option;
  mutable dead : bool;
  request_timeout : float option;
  shed_on_full : bool;
}

let create ?request_timeout ?(shed_on_full = false) kernel ~pool ~topology ~name =
  let tr = Transport.create kernel ~pool ~topology ~name:(name ^ ".ipc") () in
  Transport.start tr;
  {
    kernel;
    svc_pool = pool;
    svc_name = name;
    tr;
    table = Mount_table.create ();
    legacy_fds = Hashtbl.create 64;
    next_legacy_fd = 3;
    legacy = None;
    dead = false;
    request_timeout;
    shed_on_full;
  }

let name t = t.svc_name
let pool t = t.svc_pool
let transport t = t.tr
let requests t = Transport.requests t.tr

let add_instance t ~mount_point instance =
  Mount_table.add t.table ~mount_point instance

(* ------------------------------------------------------------------ *)
(* Default path: shared-memory IPC into the service threads. *)

let crash t = t.dead <- true

(* Supervised restart: the process is respawned with fresh state; fds
   held by applications across the crash are invalid (the remapping
   table is cleared), but mounted instances persist in the service's
   filesystem table as they are re-registered by the supervisor's
   container config. *)
let restart t =
  Hashtbl.reset t.legacy_fds;
  t.next_legacy_fd <- 3;
  t.dead <- false

let crashed t = t.dead

let view t ~instance ~thread =
  let on_overload =
    (* a full ring answers [Rejected] at the boundary instead of
       blocking the caller behind a saturated service *)
    if t.shed_on_full then Some (fun () -> Error Client_intf.Rejected)
    else None
  in
  let call bytes f =
    if t.dead then Error Client_intf.Crashed
    else
      let body () = if t.dead then Error Client_intf.Crashed else f () in
      match t.request_timeout with
      | None -> Transport.call ?on_overload t.tr ~thread ~bytes body
      | Some d ->
          Transport.call ~timeout:d
            ~on_timeout:(fun () -> Error Client_intf.Timed_out)
            ?on_overload t.tr ~thread ~bytes body
  in
  let call_unit bytes f = if t.dead then () else Transport.call t.tr ~thread ~bytes f in
  {
    Client_intf.name = t.svc_name ^ "/" ^ instance.Client_intf.name;
    open_file =
      (fun ~pool path flags -> call 0 (fun () -> instance.Client_intf.open_file ~pool path flags));
    close = (fun ~pool fd -> call_unit 0 (fun () -> instance.Client_intf.close ~pool fd));
    read =
      (fun ~pool fd ~off ~len ->
        call len (fun () -> instance.Client_intf.read ~pool fd ~off ~len));
    write =
      (fun ~pool fd ~off ~len ->
        call len (fun () -> instance.Client_intf.write ~pool fd ~off ~len));
    append =
      (fun ~pool fd ~len -> call len (fun () -> instance.Client_intf.append ~pool fd ~len));
    fsync = (fun ~pool fd -> call 0 (fun () -> instance.Client_intf.fsync ~pool fd));
    fd_size = instance.Client_intf.fd_size;
    stat = (fun ~pool path -> call 0 (fun () -> instance.Client_intf.stat ~pool path));
    mkdir_p = (fun ~pool path -> call 0 (fun () -> instance.Client_intf.mkdir_p ~pool path));
    readdir = (fun ~pool path -> call 0 (fun () -> instance.Client_intf.readdir ~pool path));
    unlink = (fun ~pool path -> call 0 (fun () -> instance.Client_intf.unlink ~pool path));
    rename =
      (fun ~pool ~src ~dst -> call 0 (fun () -> instance.Client_intf.rename ~pool ~src ~dst));
    memory_used = instance.Client_intf.memory_used;
    ext = Client_intf.No_ext;
  }

(* ------------------------------------------------------------------ *)
(* Legacy path: dispatch by the filesystem table, behind FUSE. *)

let with_route t path k =
  if t.dead then Error Client_intf.Crashed
  else
    match Mount_table.resolve t.table path with
    | None -> Error (Client_intf.Fs Namespace.No_entry)
    | Some (instance, remainder) -> k instance remainder

let with_legacy_fd t fd k =
  if t.dead then Error Client_intf.Crashed
  else
    match Hashtbl.find_opt t.legacy_fds fd with
    | None -> Error Client_intf.Bad_fd
    | Some (instance, ifd) -> k instance ifd

let dispatch_iface t =
  {
    Client_intf.name = t.svc_name ^ ".dispatch";
    open_file =
      (fun ~pool path flags ->
        with_route t path (fun instance rest ->
            match instance.Client_intf.open_file ~pool rest flags with
            | Ok ifd ->
                let fd = t.next_legacy_fd in
                t.next_legacy_fd <- t.next_legacy_fd + 1;
                Hashtbl.add t.legacy_fds fd (instance, ifd);
                Ok fd
            | Error _ as e -> e));
    close =
      (fun ~pool fd ->
        match Hashtbl.find_opt t.legacy_fds fd with
        | None -> ()
        | Some (instance, ifd) ->
            instance.Client_intf.close ~pool ifd;
            Hashtbl.remove t.legacy_fds fd);
    read =
      (fun ~pool fd ~off ~len ->
        with_legacy_fd t fd (fun i ifd -> i.Client_intf.read ~pool ifd ~off ~len));
    write =
      (fun ~pool fd ~off ~len ->
        with_legacy_fd t fd (fun i ifd -> i.Client_intf.write ~pool ifd ~off ~len));
    append =
      (fun ~pool fd ~len ->
        with_legacy_fd t fd (fun i ifd -> i.Client_intf.append ~pool ifd ~len));
    fsync =
      (fun ~pool fd -> with_legacy_fd t fd (fun i ifd -> i.Client_intf.fsync ~pool ifd));
    fd_size = (fun fd -> with_legacy_fd t fd (fun i ifd -> i.Client_intf.fd_size ifd));
    stat =
      (fun ~pool path ->
        with_route t path (fun i rest -> i.Client_intf.stat ~pool rest));
    mkdir_p =
      (fun ~pool path ->
        with_route t path (fun i rest -> i.Client_intf.mkdir_p ~pool rest));
    readdir =
      (fun ~pool path ->
        with_route t path (fun i rest -> i.Client_intf.readdir ~pool rest));
    unlink =
      (fun ~pool path ->
        with_route t path (fun i rest -> i.Client_intf.unlink ~pool rest));
    rename =
      (fun ~pool ~src ~dst ->
        with_route t src (fun i rest_src ->
            with_route t dst (fun _ rest_dst ->
                i.Client_intf.rename ~pool ~src:rest_src ~dst:rest_dst)));
    memory_used = (fun () -> 0);
    ext = Client_intf.No_ext;
  }

let legacy_iface t =
  match t.legacy with
  | Some l -> l
  | None ->
      let l =
        Fuse_wrap.wrap t.kernel ~pool:t.svc_pool ~name:(t.svc_name ^ ".fuse")
          ~threads:8 (dispatch_iface t)
      in
      t.legacy <- Some l;
      l
