open Danaus_client

type entry =
  | Svc_fd of Fs_service.t * Client_intf.t * Client_intf.fd
  | Leg_fd of Client_intf.fd

type t = {
  mounts : (Fs_service.t * Client_intf.t) Mount_table.t;
  legacy : Client_intf.t;
  lib_fds : (int, entry) Hashtbl.t;
  mutable next_fd : int;
  (* per-(thread, instance) transport views, built lazily *)
  views : (int * string, Client_intf.t) Hashtbl.t;
}

let create ~mounts ~legacy =
  let table = Mount_table.create () in
  List.iter (fun (mount_point, v) -> Mount_table.add table ~mount_point v) mounts;
  {
    mounts = table;
    legacy;
    lib_fds = Hashtbl.create 64;
    next_fd = 1000;
    views = Hashtbl.create 16;
  }

let open_files t = Hashtbl.length t.lib_fds

let view_of t ~thread service instance =
  let key = (thread, instance.Client_intf.name) in
  match Hashtbl.find_opt t.views key with
  | Some v -> v
  | None ->
      let v = Fs_service.view service ~instance ~thread in
      Hashtbl.add t.views key v;
      v

let fresh_fd t entry =
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  Hashtbl.add t.lib_fds fd entry;
  fd

let with_entry t fd k =
  match Hashtbl.find_opt t.lib_fds fd with
  | None -> Error Client_intf.Bad_fd
  | Some entry -> k entry

(* Route a path-taking operation: through a service when mounted,
   through the legacy interface otherwise. *)
let route t ~thread path ~svc ~leg =
  match Mount_table.resolve t.mounts path with
  | Some ((service, instance), rest) -> svc (view_of t ~thread service instance) rest
  | None -> leg t.legacy path

let iface t ~thread =
  {
    Client_intf.name = "fs_library";
    open_file =
      (fun ~pool path flags ->
        route t ~thread path
          ~svc:(fun view rest ->
            match Mount_table.resolve t.mounts path with
            | Some ((service, instance), _) -> begin
                match view.Client_intf.open_file ~pool rest flags with
                | Ok ifd -> Ok (fresh_fd t (Svc_fd (service, instance, ifd)))
                | Error _ as e -> e
              end
            | None -> assert false)
          ~leg:(fun legacy path ->
            match legacy.Client_intf.open_file ~pool path flags with
            | Ok lfd -> Ok (fresh_fd t (Leg_fd lfd))
            | Error _ as e -> e));
    close =
      (fun ~pool fd ->
        match Hashtbl.find_opt t.lib_fds fd with
        | None -> ()
        | Some (Svc_fd (service, instance, ifd)) ->
            (view_of t ~thread service instance).Client_intf.close ~pool ifd;
            Hashtbl.remove t.lib_fds fd
        | Some (Leg_fd lfd) ->
            t.legacy.Client_intf.close ~pool lfd;
            Hashtbl.remove t.lib_fds fd);
    read =
      (fun ~pool fd ~off ~len ->
        with_entry t fd (function
          | Svc_fd (service, instance, ifd) ->
              (view_of t ~thread service instance).Client_intf.read ~pool ifd ~off ~len
          | Leg_fd lfd -> t.legacy.Client_intf.read ~pool lfd ~off ~len));
    write =
      (fun ~pool fd ~off ~len ->
        with_entry t fd (function
          | Svc_fd (service, instance, ifd) ->
              (view_of t ~thread service instance).Client_intf.write ~pool ifd ~off ~len
          | Leg_fd lfd -> t.legacy.Client_intf.write ~pool lfd ~off ~len));
    append =
      (fun ~pool fd ~len ->
        with_entry t fd (function
          | Svc_fd (service, instance, ifd) ->
              (view_of t ~thread service instance).Client_intf.append ~pool ifd ~len
          | Leg_fd lfd -> t.legacy.Client_intf.append ~pool lfd ~len));
    fsync =
      (fun ~pool fd ->
        with_entry t fd (function
          | Svc_fd (service, instance, ifd) ->
              (view_of t ~thread service instance).Client_intf.fsync ~pool ifd
          | Leg_fd lfd -> t.legacy.Client_intf.fsync ~pool lfd));
    fd_size =
      (fun fd ->
        with_entry t fd (function
          | Svc_fd (_, instance, ifd) -> instance.Client_intf.fd_size ifd
          | Leg_fd lfd -> t.legacy.Client_intf.fd_size lfd));
    stat =
      (fun ~pool path ->
        route t ~thread path
          ~svc:(fun view rest -> view.Client_intf.stat ~pool rest)
          ~leg:(fun legacy path -> legacy.Client_intf.stat ~pool path));
    mkdir_p =
      (fun ~pool path ->
        route t ~thread path
          ~svc:(fun view rest -> view.Client_intf.mkdir_p ~pool rest)
          ~leg:(fun legacy path -> legacy.Client_intf.mkdir_p ~pool path));
    readdir =
      (fun ~pool path ->
        route t ~thread path
          ~svc:(fun view rest -> view.Client_intf.readdir ~pool rest)
          ~leg:(fun legacy path -> legacy.Client_intf.readdir ~pool path));
    unlink =
      (fun ~pool path ->
        route t ~thread path
          ~svc:(fun view rest -> view.Client_intf.unlink ~pool rest)
          ~leg:(fun legacy path -> legacy.Client_intf.unlink ~pool path));
    rename =
      (fun ~pool ~src ~dst ->
        (* cross-mount renames are not supported; route by the source *)
        match (Mount_table.resolve t.mounts src, Mount_table.resolve t.mounts dst) with
        | Some ((service, instance), rest_src), Some (_, rest_dst) ->
            (view_of t ~thread service instance).Client_intf.rename ~pool ~src:rest_src
              ~dst:rest_dst
        | None, None -> t.legacy.Client_intf.rename ~pool ~src ~dst
        | Some _, None | None, Some _ ->
            Error (Client_intf.Fs Danaus_ceph.Namespace.No_entry));
    memory_used = (fun () -> 0);
    ext = Client_intf.No_ext;
  }
