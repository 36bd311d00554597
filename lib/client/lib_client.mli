open Danaus_sim
open Danaus_hw
open Danaus_kernel
open Danaus_ceph

(** libcephfs-style user-level Ceph client.

    Runs entirely at user level on the owning pool's cores, with a
    private object cache charged to the pool's memory.  A single global
    [client_lock] serialises every cache operation — deliberately
    modelling the coarse lock of libcephfs that the paper identifies as
    the reason Danaus trails the kernel client in cached sequential read
    (§6.3.2, "client_lock", ceph tracker #23844).  Network operations
    release the lock, so misses and writeback overlap. *)

type t

type config = {
  cache_bytes : int;  (** user-level object cache capacity *)
  dirty_ratio : float;  (** max dirty = ratio * cache_bytes *)
  readahead : int;  (** bytes prefetched on a sequential miss *)
  writeback_interval : float;
  expire_interval : float;
  fine_grained_locking : bool;
      (** replace the global [client_lock] with per-inode locks — the
          libcephfs refactoring the paper identifies as the fix for the
          cached-read gap and leaves as future work (S6.3.2, S9) *)
  attr_lease : float;
      (** metadata consistency lease: cached attributes older than this
          are revalidated at the MDS, so another client's changes become
          visible within one lease (§3.4) *)
  write_through : bool;
      (** per-service consistency setting (§5): every write reaches the
          backend before returning, instead of write-back caching *)
  breaker : Danaus_qos.Breaker.config option;
      (** circuit breaker over the backend data path: open after
          consecutive cluster failures, fail fast while open, probe
          deterministically in half-open state (gauge
          [qos/breaker_state] keyed by the pool) *)
}

(** Paper defaults: dirty ratio 0.5, 1 s writeback, 5 s expire. *)
val default_config : cache_bytes:int -> config

(** [create engine ~cpu ~costs ~cluster ~pool ~config ~name] builds a
    client whose work is attributed to [pool].  Its socket context
    switches land in the engine's {!Obs} context under
    ["client"/"context_switches"] keyed by the pool name. *)
val create :
  Engine.t ->
  cpu:Cpu.t ->
  costs:Costs.t ->
  cluster:Cluster.t ->
  pool:Cgroup.t ->
  config:config ->
  name:string ->
  t

(** Spawn the background writeback thread (runs on the pool cores). *)
val start : t -> unit

(** {1 Fault injection} — the process hosting this client dies/returns.
    While crashed, every operation answers [Error Crashed] and the
    writeback thread is idle. *)

val crash : t -> unit

val restart : t -> unit

val crashed : t -> bool

(** The client as a generic filesystem instance. *)
val iface : t -> Client_intf.t

(** The global client lock (exposed for contention instrumentation). *)
val client_lock : t -> Mutex_sim.t

(** Bytes currently held by the user-level cache. *)
val cache_used : t -> int

(** Inodes the client holds state for: linked ones it has looked up,
    created or opened, plus unlinked ones still open.  An inode unlinked
    through this client is evicted at its last close. *)
val inode_count : t -> int

val dirty_bytes : t -> int
