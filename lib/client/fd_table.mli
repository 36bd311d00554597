open Danaus_sim
open Danaus_kernel
open Danaus_ceph

(** Per-client open-file and inode table shared by the client
    implementations: descriptor allocation, one record per inode the
    client holds state for, and the attribute (dentry) cache.

    Inode records follow the kernel's lifecycle: a record lives while
    the inode is linked or open, and is evicted when it has been
    unlinked through this client and its last descriptor closes
    (Linux [iput] -> [evict_inode]).  Eviction forgets the record's
    page-cache file ({!Page_cache.forget}) and runs the client's
    [on_evict] hook. *)

type inode = {
  ino : int;
  mutable size : int;  (** client-local authoritative size *)
  mutable cursor : int;  (** monotonic writeback offset *)
  mutable opens : int;
      (** references: open descriptors plus ops in flight on them *)
  mutable unlinked : bool;
  mutable fetch_lock : Mutex_sim.t option;
      (** page-lock single flight for misses, created on first miss *)
  mutable lock : Mutex_sim.t option;  (** the inode's mutex, if any *)
  mutable file : Page_cache.file option;  (** cached data, if any *)
}

type entry = {
  path : string;
  inode : inode;
  flags : Client_intf.flags;
  mutable written : bool;
  mutable last_end : int;
      (** end offset of the previous read, for sequential detection *)
}

type t

val create : ?on_evict:(inode -> unit) -> unit -> t

(** The record of inode [ino], created (size 0, not open) if absent. *)
val inode : t -> int -> inode

(** Inode records currently held (linked or open ones). *)
val inode_count : t -> int

(** Allocate a descriptor for a new open of inode [ino]. *)
val insert : t -> path:string -> ino:int -> flags:Client_intf.flags -> Client_intf.fd

val find : t -> Client_intf.fd -> entry option

(** Release a descriptor; evicts its inode if that was the last open of
    an unlinked inode. *)
val remove : t -> Client_intf.fd -> unit

(** [with_held t e f] runs [f] holding a reference on [e]'s inode, as
    Linux's [fget]/[fput] do for a syscall in flight: a descriptor
    shared between threads can be closed, and its inode unlinked, while
    an op on it is blocked, and the inode must outlive that op. *)
val with_held : t -> entry -> (unit -> 'a) -> 'a

(** Mark inode [ino] unlinked; evicts it now if no descriptor is open. *)
val unlink : t -> int -> unit

(** Record an attribute-cache entry at time [now] ([None] caches a
    negative lookup). *)
val put_attr : t -> string -> Namespace.attr option -> now:float -> unit

(** Cached attribute, if the path was looked up within the [lease]
    window ending at [now] (the client's metadata consistency lease,
    §3.4: changes by other clients become visible once the lease
    expires). *)
val get_attr : t -> string -> now:float -> lease:float -> Namespace.attr option option

val drop_attr : t -> string -> unit
val open_count : t -> int
