open Danaus_kernel
open Danaus_ceph
open Danaus_client

type branch = { client : Client_intf.t; prefix : string; writable : bool }

(* Block-level copy-on-write bookkeeping of one lower file that has been
   opened for writing: which blocks live in the upper delta file, and the
   file's logical size.  (A production system would persist this map in
   the delta file's header; the simulation keeps it with the union.) *)
type cow_meta = {
  cow_blocks : (int, unit) Hashtbl.t;
  mutable cow_size : int;
}

type ufd =
  | Plain of Client_intf.t * Client_intf.fd
  | Cow of {
      lower_c : Client_intf.t;
      lower_fd : Client_intf.fd;
      upper_c : Client_intf.t;
      upper_fd : Client_intf.fd;
      meta : cow_meta;
      blk : int;
    }

type state = {
  branches : branch list; (* topmost first *)
  upper : branch option;
  charge : pool:Cgroup.t -> float -> unit;
  cpu_per_op : float;
  block_cow : int option; (* Some block-size: block-level CoW (S9) *)
  cow_files : (string, cow_meta) Hashtbl.t; (* union path -> delta map *)
  fds : (int, ufd) Hashtbl.t;
  mutable next_fd : int;
  mutable copy_up_count : int;
  mutable copy_up_rollbacks : int;
}

(* The union's state travels with the instance it built, so two unions
   of the same name (another testbed, a parallel runner domain) never
   see each other's copy-up statistics. *)
type Client_intf.ext += Union of state

let find_state (iface : Client_intf.t) =
  match iface.Client_intf.ext with Union st -> Some st | _ -> None

let copy_ups iface =
  match find_state iface with Some st -> st.copy_up_count | None -> 0

let copy_up_rollbacks iface =
  match find_state iface with Some st -> st.copy_up_rollbacks | None -> 0

let copy_chunk = 1024 * 1024

let branch_path branch path =
  if Fspath.is_root branch.prefix then Fspath.normalize path
  else Fspath.normalize (branch.prefix ^ Fspath.normalize path)

(* First branch (top-down) holding [path]; a whiteout in a higher branch
   hides every copy below it. *)
let lookup st ~pool path =
  let rec walk = function
    | [] -> None
    | b :: rest -> begin
        st.charge ~pool st.cpu_per_op;
        let wh = Whiteout.of_path (branch_path b path) in
        match b.client.Client_intf.stat ~pool wh with
        | Ok _ -> None (* whited out *)
        | Error _ -> begin
            match b.client.Client_intf.stat ~pool (branch_path b path) with
            | Ok attr -> Some (b, attr)
            | Error _ -> walk rest
          end
      end
  in
  walk st.branches

let fresh_ufd st ufd =
  let fd = st.next_fd in
  st.next_fd <- st.next_fd + 1;
  Hashtbl.add st.fds fd ufd;
  fd

let fresh_fd st client bfd = fresh_ufd st (Plain (client, bfd))

let cow_delta_path path =
  let dir = Fspath.parent path and name = Fspath.basename path in
  Fspath.join dir (".cow." ^ name)

let is_cow_delta name = String.starts_with ~prefix:".cow." name

let remove_whiteout (_ : state) ~pool upper path =
  ignore (upper.client.Client_intf.unlink ~pool (Whiteout.of_path (branch_path upper path)))

let make_whiteout st ~pool upper path =
  st.charge ~pool st.cpu_per_op;
  let wh = Whiteout.of_path (branch_path upper path) in
  match upper.client.Client_intf.open_file ~pool wh Client_intf.flags_wo with
  | Ok fd ->
      upper.client.Client_intf.close ~pool fd;
      Ok ()
  | Error e -> Error e

(* File-granularity copy-on-write: read the whole lower file and write it
   into the writable branch.  A failed copy must not leave a truncated
   upper copy shadowing the intact lower file: the partial destination is
   unlinked before the error propagates, so the next lookup falls through
   to the lower branch again. *)
let copy_up st ~pool ~src_branch ~src_attr ~upper ~src_path ~dst_path =
  st.copy_up_count <- st.copy_up_count + 1;
  let src = src_branch.client and dst = upper.client in
  let src_path = branch_path src_branch src_path in
  match src.Client_intf.open_file ~pool src_path Client_intf.flags_ro with
  | Error _ as e -> e
  | Ok sfd -> begin
      match
        dst.Client_intf.open_file ~pool (branch_path upper dst_path)
          Client_intf.flags_wo
      with
      | Error _ as e ->
          src.Client_intf.close ~pool sfd;
          e
      | Ok dfd ->
          let size = src_attr.Namespace.size in
          let off = ref 0 in
          let failed = ref None in
          while !failed = None && !off < size do
            let len = Stdlib.min copy_chunk (size - !off) in
            (match src.Client_intf.read ~pool sfd ~off:!off ~len with
            | Error e -> failed := Some e
            | Ok n -> begin
                match dst.Client_intf.write ~pool dfd ~off:!off ~len:n with
                | Error e -> failed := Some e
                | Ok () -> ()
              end);
            off := !off + len
          done;
          src.Client_intf.close ~pool sfd;
          (match !failed with
          | Some e ->
              dst.Client_intf.close ~pool dfd;
              st.copy_up_rollbacks <- st.copy_up_rollbacks + 1;
              ignore
                (dst.Client_intf.unlink ~pool (branch_path upper dst_path));
              Error e
          | None -> Ok dfd)
    end

let open_file st ~pool path (flags : Client_intf.flags) =
  let require_upper k =
    match st.upper with
    | None -> Error Client_intf.Read_only
    | Some upper -> k upper
  in
  if not flags.wr then begin
    match lookup st ~pool path with
    | None -> Error (Client_intf.Fs Namespace.No_entry)
    | Some (b, _) -> begin
        match (Hashtbl.find_opt st.cow_files (Fspath.normalize path), st.upper) with
        | Some meta, Some upper -> begin
            (* the file has a block-CoW delta: a reader must merge it *)
            match
              b.client.Client_intf.open_file ~pool (branch_path b path)
                Client_intf.flags_ro
            with
            | Error _ as e -> e
            | Ok lower_fd -> begin
                match
                  upper.client.Client_intf.open_file ~pool
                    (branch_path upper (cow_delta_path path))
                    Client_intf.flags_ro
                with
                | Error _ as e ->
                    b.client.Client_intf.close ~pool lower_fd;
                    e
                | Ok upper_fd ->
                    Ok
                      (fresh_ufd st
                         (Cow
                            {
                              lower_c = b.client;
                              lower_fd;
                              upper_c = upper.client;
                              upper_fd;
                              meta;
                              blk = Option.value ~default:65536 st.block_cow;
                            }))
              end
          end
        | _ -> begin
            match
              b.client.Client_intf.open_file ~pool (branch_path b path) flags
            with
            | Ok bfd -> Ok (fresh_fd st b.client bfd)
            | Error _ as e -> e
          end
      end
  end
  else
    require_upper (fun upper ->
        match lookup st ~pool path with
        | Some (b, _) when b == upper -> begin
            match b.client.Client_intf.open_file ~pool (branch_path b path) flags with
            | Ok bfd -> Ok (fresh_fd st b.client bfd)
            | Error _ as e -> e
          end
        | Some (b, attr) ->
            if flags.trunc then begin
              (* no need to copy data that is being discarded *)
              match
                upper.client.Client_intf.open_file ~pool (branch_path upper path)
                  Client_intf.flags_wo
              with
              | Ok bfd -> Ok (fresh_fd st upper.client bfd)
              | Error _ as e -> e
            end
            else begin
              match st.block_cow with
              | Some blk -> begin
                  (* block-level CoW: no data copied; writes go to a
                     sparse delta file in the upper branch *)
                  let meta =
                    match Hashtbl.find_opt st.cow_files path with
                    | Some m -> m
                    | None ->
                        let m =
                          {
                            cow_blocks = Hashtbl.create 64;
                            cow_size = attr.Namespace.size;
                          }
                        in
                        Hashtbl.add st.cow_files path m;
                        m
                  in
                  let delta_flags =
                    {
                      Client_intf.rd = true;
                      wr = true;
                      append = false;
                      create = true;
                      trunc = false;
                    }
                  in
                  match
                    b.client.Client_intf.open_file ~pool (branch_path b path)
                      Client_intf.flags_ro
                  with
                  | Error _ as e -> e
                  | Ok lower_fd -> begin
                      match
                        upper.client.Client_intf.open_file ~pool
                          (branch_path upper (cow_delta_path path))
                          delta_flags
                      with
                      | Error _ as e ->
                          b.client.Client_intf.close ~pool lower_fd;
                          e
                      | Ok upper_fd ->
                          Ok
                            (fresh_ufd st
                               (Cow
                                  {
                                    lower_c = b.client;
                                    lower_fd;
                                    upper_c = upper.client;
                                    upper_fd;
                                    meta;
                                    blk;
                                  }))
                    end
                end
              | None -> begin
                  match
                    copy_up st ~pool ~src_branch:b ~src_attr:attr ~upper
                      ~src_path:path ~dst_path:path
                  with
                  | Ok bfd -> Ok (fresh_fd st upper.client bfd)
                  | Error _ as e -> e
                end
            end
        | None ->
            if not flags.create then Error (Client_intf.Fs Namespace.No_entry)
            else begin
              remove_whiteout st ~pool upper path;
              match
                upper.client.Client_intf.open_file ~pool (branch_path upper path) flags
              with
              | Ok bfd -> Ok (fresh_fd st upper.client bfd)
              | Error _ as e -> e
            end)

let with_fd st fd k =
  match Hashtbl.find_opt st.fds fd with
  | None -> Error Client_intf.Bad_fd
  | Some ufd -> k ufd

(* Split [off, len) into runs of blocks living on the same side. *)
let cow_segments meta ~blk ~off ~len =
  let segments = ref [] in
  let pos = ref off in
  let fin = off + len in
  while !pos < fin do
    let b = !pos / blk in
    let in_upper = Hashtbl.mem meta.cow_blocks b in
    let seg_start = !pos in
    let p = ref !pos in
    while
      !p < fin && Hashtbl.mem meta.cow_blocks (!p / blk) = in_upper
    do
      p := Stdlib.min fin ((!p / blk * blk) + blk)
    done;
    segments := (in_upper, seg_start, !p - seg_start) :: !segments;
    pos := !p
  done;
  List.rev !segments

let ufd_read st ~pool ufd ~off ~len =
  ignore st;
  match ufd with
  | Plain (c, bfd) -> c.Client_intf.read ~pool bfd ~off ~len
  | Cow { lower_c; lower_fd; upper_c; upper_fd; meta; blk } ->
      let total = Stdlib.max 0 (Stdlib.min len (meta.cow_size - off)) in
      if total = 0 then Ok 0
      else begin
        let failed = ref None in
        List.iter
          (fun (in_upper, seg_off, seg_len) ->
            if !failed = None then begin
              let r =
                if in_upper then
                  upper_c.Client_intf.read ~pool upper_fd ~off:seg_off ~len:seg_len
                else
                  lower_c.Client_intf.read ~pool lower_fd ~off:seg_off ~len:seg_len
              in
              match r with Error e -> failed := Some e | Ok _ -> ()
            end)
          (cow_segments meta ~blk ~off ~len:total);
        match !failed with Some e -> Error e | None -> Ok total
      end

let ufd_write st ~pool ufd ~off ~len =
  ignore st;
  match ufd with
  | Plain (c, bfd) -> c.Client_intf.write ~pool bfd ~off ~len
  | Cow { upper_c; upper_fd; meta; blk; _ } -> begin
      match upper_c.Client_intf.write ~pool upper_fd ~off ~len with
      | Error _ as e -> e
      | Ok () ->
          if len > 0 then
            for b = off / blk to (off + len - 1) / blk do
              Hashtbl.replace meta.cow_blocks b ()
            done;
          if off + len > meta.cow_size then meta.cow_size <- off + len;
          Ok ()
    end

let exists_below st ~pool ~upper path =
  List.exists
    (fun b ->
      (not (b == upper))
      && Result.is_ok (b.client.Client_intf.stat ~pool (branch_path b path)))
    st.branches

(* Consistency check: every whiteout in the writable branch must hide an
   entry that actually exists in some lower branch.  An orphan whiteout
   (left behind by an interrupted unlink/rename, or kept after the lower
   entry vanished) wastes lookups and can mask a file re-created later
   under the same name.  Returns the union paths of orphans, depth-first
   in sorted order. *)
let whiteout_orphans st ~pool =
  match st.upper with
  | None -> []
  | Some upper ->
      let orphans = ref [] in
      let rec walk dir =
        match
          upper.client.Client_intf.readdir ~pool (branch_path upper dir)
        with
        | Error _ -> ()
        | Ok names ->
            List.iter
              (fun name ->
                let path = Fspath.join dir name in
                match Whiteout.hidden_name name with
                | Some hidden ->
                    if not (exists_below st ~pool ~upper (Fspath.join dir hidden))
                    then orphans := Fspath.join dir hidden :: !orphans
                | None -> begin
                    match
                      upper.client.Client_intf.stat ~pool (branch_path upper path)
                    with
                    | Ok attr when attr.Namespace.is_dir -> walk path
                    | _ -> ()
                  end)
              names
      in
      walk "/";
      List.sort String.compare !orphans

let unlink st ~pool path =
  match st.upper with
  | None -> Error Client_intf.Read_only
  | Some upper -> begin
      match lookup st ~pool path with
      | None -> Error (Client_intf.Fs Namespace.No_entry)
      | Some (b, _) when b == upper ->
          let r = upper.client.Client_intf.unlink ~pool (branch_path upper path) in
          if Result.is_ok r && exists_below st ~pool ~upper path then
            Result.bind (make_whiteout st ~pool upper path) (fun () -> Ok ())
          else r
      | Some _ ->
          (* drop any block-CoW delta along with the logical file *)
          (match Hashtbl.find_opt st.cow_files (Fspath.normalize path) with
          | Some _ ->
              Hashtbl.remove st.cow_files (Fspath.normalize path);
              ignore
                (upper.client.Client_intf.unlink ~pool
                   (branch_path upper (cow_delta_path path)))
          | None -> ());
          Result.bind (make_whiteout st ~pool upper path) (fun () -> Ok ())
    end

let readdir st ~pool path =
  let visible = Hashtbl.create 32 in
  let masked = Hashtbl.create 8 in
  let saw_dir = ref false in
  List.iter
    (fun b ->
      st.charge ~pool st.cpu_per_op;
      match b.client.Client_intf.readdir ~pool (branch_path b path) with
      | Error _ -> ()
      | Ok names ->
          saw_dir := true;
          List.iter
            (fun name ->
              match Whiteout.hidden_name name with
              | Some hidden -> Hashtbl.replace masked hidden ()
              | None ->
                  if (not (Hashtbl.mem masked name)) && not (is_cow_delta name)
                  then Hashtbl.replace visible name ())
            names)
    st.branches;
  if not !saw_dir then Error (Client_intf.Fs Namespace.No_entry)
  else
    Ok (Hashtbl.fold (fun n () acc -> n :: acc) visible [] |> List.sort String.compare)

let rename st ~pool ~src ~dst =
  match st.upper with
  | None -> Error Client_intf.Read_only
  | Some upper -> begin
      match lookup st ~pool src with
      | None -> Error (Client_intf.Fs Namespace.No_entry)
      | Some (b, attr) ->
          if attr.Namespace.is_dir then Error (Client_intf.Fs Namespace.Is_dir)
          else begin
            remove_whiteout st ~pool upper dst;
            let moved =
              if b == upper then
                upper.client.Client_intf.rename ~pool
                  ~src:(branch_path upper src) ~dst:(branch_path upper dst)
              else begin
                match
                  copy_up st ~pool ~src_branch:b ~src_attr:attr ~upper ~src_path:src
                    ~dst_path:dst
                with
                | Error e -> Error e
                | Ok dfd ->
                    upper.client.Client_intf.close ~pool dfd;
                    Ok ()
              end
            in
            match moved with
            | Error _ as e -> e
            | Ok () ->
                if exists_below st ~pool ~upper src then
                  Result.bind (make_whiteout st ~pool upper src) (fun () -> Ok ())
                else Ok ()
          end
    end

let create ~name ~branches ~charge ?(cpu_per_op = 1.0e-6) ?block_cow () =
  (match branches with
  | [] -> invalid_arg "Union_fs.create: no branches"
  | top :: rest ->
      if List.exists (fun b -> b.writable) rest then
        invalid_arg "Union_fs.create: only the top branch may be writable";
      ignore top);
  let upper =
    match branches with b :: _ when b.writable -> Some b | _ -> None
  in
  let st =
    {
      branches;
      upper;
      charge;
      cpu_per_op;
      block_cow;
      cow_files = Hashtbl.create 16;
      fds = Hashtbl.create 64;
      next_fd = 3;
      copy_up_count = 0;
      copy_up_rollbacks = 0;
    }
  in
  let iface =
    {
      Client_intf.name;
      open_file = (fun ~pool path flags -> open_file st ~pool path flags);
      close =
        (fun ~pool fd ->
          match Hashtbl.find_opt st.fds fd with
          | None -> ()
          | Some (Plain (client, bfd)) ->
              client.Client_intf.close ~pool bfd;
              Hashtbl.remove st.fds fd
          | Some (Cow { lower_c; lower_fd; upper_c; upper_fd; _ }) ->
              lower_c.Client_intf.close ~pool lower_fd;
              upper_c.Client_intf.close ~pool upper_fd;
              Hashtbl.remove st.fds fd);
      read =
        (fun ~pool fd ~off ~len ->
          with_fd st fd (fun ufd -> ufd_read st ~pool ufd ~off ~len));
      write =
        (fun ~pool fd ~off ~len ->
          with_fd st fd (fun ufd -> ufd_write st ~pool ufd ~off ~len));
      append =
        (fun ~pool fd ~len ->
          with_fd st fd (function
            | Plain (c, bfd) -> c.Client_intf.append ~pool bfd ~len
            | Cow _ as ufd ->
                let off =
                  match ufd with Cow { meta; _ } -> meta.cow_size | Plain _ -> 0
                in
                ufd_write st ~pool ufd ~off ~len));
      fsync =
        (fun ~pool fd ->
          with_fd st fd (function
            | Plain (c, bfd) -> c.Client_intf.fsync ~pool bfd
            | Cow { upper_c; upper_fd; _ } -> upper_c.Client_intf.fsync ~pool upper_fd));
      fd_size =
        (fun fd ->
          with_fd st fd (function
            | Plain (c, bfd) -> c.Client_intf.fd_size bfd
            | Cow { meta; _ } -> Ok meta.cow_size));
      stat =
        (fun ~pool path ->
          match lookup st ~pool path with
          | Some (_, attr) -> begin
              (* a block-CoW delta overrides the lower file's size *)
              match Hashtbl.find_opt st.cow_files (Fspath.normalize path) with
              | Some meta -> Ok { attr with Namespace.size = meta.cow_size }
              | None -> Ok attr
            end
          | None -> Error (Client_intf.Fs Namespace.No_entry));
      mkdir_p =
        (fun ~pool path ->
          match st.upper with
          | None -> Error Client_intf.Read_only
          | Some upper -> upper.client.Client_intf.mkdir_p ~pool (branch_path upper path));
      readdir = (fun ~pool path -> readdir st ~pool path);
      unlink = (fun ~pool path -> unlink st ~pool path);
      rename = (fun ~pool ~src ~dst -> rename st ~pool ~src ~dst);
      memory_used = (fun () -> 0);
      ext = Union st;
    }
  in
  iface

let check_whiteouts iface ~pool =
  match find_state iface with
  | None -> []
  | Some st -> whiteout_orphans st ~pool
