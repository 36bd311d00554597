open Danaus_kernel
open Danaus_ceph

(** Common interface of the three backend clients (kernel CephFS,
    FUSE-based ceph-fuse, libcephfs-style library client).

    The interface is a record of closures ("filesystem instance" in the
    paper's terms) so that the union filesystem and the Danaus service
    can stack over any client chosen at runtime (Table 1 configs). *)

type fd = int

type flags = {
  rd : bool;
  wr : bool;
  append : bool;
  create : bool;
  trunc : bool;
}

val flags_ro : flags
val flags_wo : flags  (** write, create, truncate *)

val flags_append : flags  (** O_WRONLY | O_APPEND *)

type error =
  | Fs of Namespace.error
  | Bad_fd
  | Read_only
  | Crashed  (** the backing service/daemon is dead *)
  | Unavailable  (** the storage backend rejected the op (no replica up) *)
  | Timed_out  (** the request timed out in transit *)
  | Rejected  (** shed by admission control or a full IPC ring *)

val error_to_string : error -> string

(** Transient errors ([Crashed], [Unavailable], [Timed_out]) may clear
    after a restart or failover and are worth retrying; [Fs] answers are
    definitive and never retried.  [Rejected] is never retried either:
    it is the overload machinery asking for less load, not a fault. *)
val is_transient : error -> bool

(** Layer-private state attached to an instance.  A layer that must
    find its own state again from the instance it built (the union's
    copy-up counters) adds a constructor; other instances carry
    [No_ext]. *)
type ext = ..

type ext += No_ext

type t = {
  name : string;
  open_file : pool:Cgroup.t -> string -> flags -> (fd, error) result;
  close : pool:Cgroup.t -> fd -> unit;
  read : pool:Cgroup.t -> fd -> off:int -> len:int -> (int, error) result;
      (** returns bytes actually read (short at EOF) *)
  write : pool:Cgroup.t -> fd -> off:int -> len:int -> (unit, error) result;
  append : pool:Cgroup.t -> fd -> len:int -> (unit, error) result;
  fsync : pool:Cgroup.t -> fd -> (unit, error) result;
  fd_size : fd -> (int, error) result;
  stat : pool:Cgroup.t -> string -> (Namespace.attr, error) result;
  mkdir_p : pool:Cgroup.t -> string -> (unit, error) result;
  readdir : pool:Cgroup.t -> string -> (string list, error) result;
  unlink : pool:Cgroup.t -> string -> (unit, error) result;
  rename : pool:Cgroup.t -> src:string -> dst:string -> (unit, error) result;
  memory_used : unit -> int;
      (** bytes of cache memory currently attributable to this client *)
  ext : ext;
}

(** [read_exact t ~pool fd ~off ~len] keeps reading until [len] bytes or
    EOF; convenience for workloads. *)
val read_exact : t -> pool:Cgroup.t -> fd -> off:int -> len:int -> (int, error) result
