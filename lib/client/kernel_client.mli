open Danaus_kernel
open Danaus_ceph

(** Kernel-based CephFS client (the paper's "K").

    Serves I/O inside the shared host kernel: data lives in the *shared*
    page cache, writeback is done by the *shared* kernel flushers (on any
    activated core), and every operation briefly takes host-wide kernel
    locks (VFS dcache, superblock inode-mutex class) besides the
    per-inode mutex on writes.  These shared resources are exactly what
    collapses under colocation in the paper's Fig. 1/6. *)

type t

(** [create kernel ~cluster ~name ~max_dirty] mounts a kernel client.
    [max_dirty] is the mount's dirty limit (paper: 50% of the pool RAM);
    [mem_limit] bounds the page cache the mount may hold (the pool's
    cgroup memory limit).  [readahead] defaults to 4 MiB. *)
val create :
  Kernel.t -> cluster:Cluster.t -> name:string -> max_dirty:int -> ?mem_limit:int ->
  ?readahead:int -> unit -> t

(** The client as a generic filesystem instance.  All CPU is charged to
    the *calling* pool (cpuset applies to syscall context), while
    writeback runs on the kernel's threads. *)
val iface : t -> Client_intf.t

val name : t -> string

(** Inodes the client holds state for: linked ones it has looked up,
    created or opened, plus unlinked ones still open.  An inode unlinked
    through this client is evicted at its last close. *)
val inode_count : t -> int

(** {1 Fault injection} — the in-kernel client wedges/recovers.  While
    crashed, every operation on every mount answers [Error Crashed]. *)

val crash : t -> unit

val restart : t -> unit

val crashed : t -> bool
