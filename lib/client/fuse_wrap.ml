open Danaus_kernel

let wrap kernel ~pool ~name ?threads (inner : Client_intf.t) =
  let fuse = Fuse.create kernel ~name ~pool in
  let threads = match threads with Some n -> n | None -> 8 in
  Fuse.start fuse ~threads;
  let through ~pool ~bytes f = Fuse.call fuse ~caller:pool ~bytes f in
  {
    Client_intf.name;
    open_file =
      (fun ~pool path flags ->
        through ~pool ~bytes:0 (fun () -> inner.Client_intf.open_file ~pool path flags));
    close =
      (fun ~pool fd -> through ~pool ~bytes:0 (fun () -> inner.Client_intf.close ~pool fd));
    read =
      (fun ~pool fd ~off ~len ->
        through ~pool ~bytes:len (fun () -> inner.Client_intf.read ~pool fd ~off ~len));
    write =
      (fun ~pool fd ~off ~len ->
        through ~pool ~bytes:len (fun () -> inner.Client_intf.write ~pool fd ~off ~len));
    append =
      (fun ~pool fd ~len ->
        through ~pool ~bytes:len (fun () -> inner.Client_intf.append ~pool fd ~len));
    fsync =
      (fun ~pool fd -> through ~pool ~bytes:0 (fun () -> inner.Client_intf.fsync ~pool fd));
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
        through ~pool ~bytes:0 (fun () -> inner.Client_intf.rename ~pool ~src ~dst));
    memory_used = inner.Client_intf.memory_used;
    ext = Client_intf.No_ext;
  }
