open Danaus_kernel

type t = { lib : Lib_client.t; iface_v : Client_intf.t }

let create kernel ~cluster ~pool ~config ~name ~page_cache ?threads () =
  let lib =
    Lib_client.create (Kernel.engine kernel) ~cpu:(Kernel.cpu kernel)
      ~costs:(Kernel.costs kernel) ~cluster ~pool ~config
      ~name:(name ^ ".daemon")
  in
  Lib_client.start lib;
  let fuse = Fuse.create kernel ~name ~pool in
  (* ceph-fuse runs a small fixed worker pool regardless of machine size *)
  let threads = match threads with Some n -> n | None -> 8 in
  Fuse.start fuse ~threads;
  let through ~pool ~bytes f = Fuse.call fuse ~caller:pool ~bytes f in
  let inner = Lib_client.iface lib in
  (* the F variant: every operation crosses the FUSE transport *)
  let base =
    {
      Client_intf.name;
      open_file =
        (fun ~pool path flags ->
          through ~pool ~bytes:0 (fun () ->
              inner.Client_intf.open_file ~pool path flags));
      close =
        (fun ~pool fd ->
          through ~pool ~bytes:0 (fun () -> inner.Client_intf.close ~pool fd));
      read =
        (fun ~pool fd ~off ~len ->
          through ~pool ~bytes:len (fun () ->
              inner.Client_intf.read ~pool fd ~off ~len));
      write =
        (fun ~pool fd ~off ~len ->
          through ~pool ~bytes:len (fun () ->
              inner.Client_intf.write ~pool fd ~off ~len));
      append =
        (fun ~pool fd ~len ->
          through ~pool ~bytes:len (fun () -> inner.Client_intf.append ~pool fd ~len));
      fsync =
        (fun ~pool fd ->
          through ~pool ~bytes:0 (fun () -> inner.Client_intf.fsync ~pool fd));
      fd_size = inner.Client_intf.fd_size;
      stat =
        (fun ~pool path ->
          through ~pool ~bytes:0 (fun () -> inner.Client_intf.stat ~pool path));
      mkdir_p =
        (fun ~pool path ->
          through ~pool ~bytes:0 (fun () -> inner.Client_intf.mkdir_p ~pool path));
      readdir =
        (fun ~pool path ->
          through ~pool ~bytes:0 (fun () -> inner.Client_intf.readdir ~pool path));
      unlink =
        (fun ~pool path ->
          through ~pool ~bytes:0 (fun () -> inner.Client_intf.unlink ~pool path));
      rename =
        (fun ~pool ~src ~dst ->
          through ~pool ~bytes:0 (fun () ->
              inner.Client_intf.rename ~pool ~src ~dst));
      memory_used = (fun () -> Lib_client.cache_used lib);
      ext = Client_intf.No_ext;
    }
  in
  (* the FP variant stacks the kernel page cache on top (double caching) *)
  let iface_v =
    if page_cache then
      Pagecache_wrap.wrap kernel ~name ~max_dirty:(Cgroup.mem_limit pool / 2) base
    else base
  in
  { lib; iface_v }

let inner t = t.lib
let iface t = t.iface_v

(* ceph-fuse daemon death: the wrapped user-level client carries the
   crash flag, so every path through the FUSE transport fails too. *)
let crash t = Lib_client.crash t.lib
let restart t = Lib_client.restart t.lib
let crashed t = Lib_client.crashed t.lib
