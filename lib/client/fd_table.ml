open Danaus_sim
open Danaus_kernel
open Danaus_ceph

type inode = {
  ino : int;
  mutable size : int;
  mutable cursor : int;
  mutable opens : int;
  mutable unlinked : bool;
  mutable fetch_lock : Mutex_sim.t option;
  mutable lock : Mutex_sim.t option;
  mutable file : Page_cache.file option;
}

type entry = {
  path : string;
  inode : inode;
  flags : Client_intf.flags;
  mutable written : bool;
  mutable last_end : int; (* end offset of the previous read (readahead) *)
}

type t = {
  fds : (int, entry) Hashtbl.t;
  inodes : (int, inode) Hashtbl.t;
  attrs : (string, Namespace.attr option * float) Hashtbl.t;
  on_evict : inode -> unit;
  mutable next_fd : int;
}

let create ?(on_evict = ignore) () =
  {
    fds = Hashtbl.create 64;
    inodes = Hashtbl.create 1024;
    attrs = Hashtbl.create 1024;
    on_evict;
    next_fd = 3;
  }

let inode t ino =
  match Hashtbl.find t.inodes ino with
  | i -> i
  | exception Not_found ->
      let i =
        {
          ino;
          size = 0;
          cursor = 0;
          opens = 0;
          unlinked = false;
          fetch_lock = None;
          lock = None;
          file = None;
        }
      in
      Hashtbl.add t.inodes ino i;
      i

let inode_count t = Hashtbl.length t.inodes

(* iput -> evict_inode: the last reference to an unlinked inode is gone *)
let evict t i =
  Hashtbl.remove t.inodes i.ino;
  Option.iter Page_cache.forget i.file;
  t.on_evict i

let insert t ~path ~ino ~flags =
  let inode = inode t ino in
  let fd = t.next_fd in
  t.next_fd <- t.next_fd + 1;
  inode.opens <- inode.opens + 1;
  Hashtbl.add t.fds fd { path; inode; flags; written = false; last_end = 0 };
  fd

let find t fd = Hashtbl.find_opt t.fds fd

let release t i =
  i.opens <- i.opens - 1;
  if i.unlinked && i.opens = 0 then evict t i

let remove t fd =
  match Hashtbl.find t.fds fd with
  | { inode = i; _ } ->
      Hashtbl.remove t.fds fd;
      release t i
  | exception Not_found -> ()

let with_held t e f =
  let i = e.inode in
  i.opens <- i.opens + 1;
  Fun.protect ~finally:(fun () -> release t i) f

let unlink t ino =
  match Hashtbl.find t.inodes ino with
  | i ->
      i.unlinked <- true;
      if i.opens = 0 then evict t i
  | exception Not_found -> ()

let put_attr t path attr ~now = Hashtbl.replace t.attrs path (attr, now)

let get_attr t path ~now ~lease =
  match Hashtbl.find t.attrs path with
  | attr, at when now -. at <= lease -> Some attr
  | _ -> None
  | exception Not_found -> None

let drop_attr t path = Hashtbl.remove t.attrs path
let open_count t = Hashtbl.length t.fds
