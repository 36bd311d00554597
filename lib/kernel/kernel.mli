open Danaus_sim
open Danaus_hw

(** The shared host kernel.

    Centralises everything the colocated pools contend on: the page
    cache, the kernel lock registry, the writeback (flusher) machinery
    and the CPU cost accounting of syscalls, context switches and data
    copies.

    The defining behaviour (paper §2.1): syscall-context CPU is charged
    to the calling pool's reserved cores (cpuset applies to the task),
    but *flusher* CPU runs on any activated core of the host — so a
    write-intensive tenant's writeback lands on its neighbours' cores. *)

type t

(** [create engine ~cpu ~activated ~page_cache_limit] builds a kernel
    using cores [activated] for its background threads.  [writeback]
    (default 1 s) and [expire] (default 5 s) mirror
    [dirty_writeback_centisecs] / [dirty_expire_centisecs]. *)
val create :
  ?costs:Costs.t ->
  ?writeback:float ->
  ?expire:float ->
  Engine.t ->
  cpu:Cpu.t ->
  activated:int array ->
  page_cache_limit:int ->
  t

val engine : t -> Engine.t
val cpu : t -> Cpu.t
val costs : t -> Costs.t
val activated : t -> int array
val page_cache : t -> Page_cache.t

(** The engine's observability context.  Kernel accounting lands under
    layer ["kernel"]: counters [syscalls], [mode_switches],
    [context_switches] and [io_wait] keyed by pool name, and
    [bytes_flushed] / [flusher_runs] keyed by ["kernel"]. *)
val obs : t -> Obs.t

(** Change the activated core set (experiments enable 4-16 cores). *)
val set_activated : t -> int array -> unit

(** {1 Locks} *)

(** Interned kernel lock; the same name yields the same mutex, shared by
    every pool on the host (e.g. ["i_mutex:/a/b"], ["sb:cephfs"]). *)
val lock : t -> string -> Mutex_sim.t

(** A lock class (lockdep's term): the per-object locks of one kind on
    one mount, e.g. ["i_mutex:<mount>"] for the inode mutexes.  Its
    instances are created and retired with their objects, but every
    instance records its wait/hold distribution under the class name,
    and a retired instance's totals stay in the class's statistics. *)
type lock_class

(** Interned lock class. *)
val lock_class : t -> string -> lock_class

(** [class_lock c id] is the instance of [c] guarding object [id]
    (e.g. an inode number), created on first use. *)
val class_lock : lock_class -> int -> Mutex_sim.t

(** [retire_lock c id] forgets the instance of object [id] (evicted),
    folding its wait/hold/acquisition totals into the class.  Holds
    still in progress are not counted; no-op for an unknown [id]. *)
val retire_lock : lock_class -> int -> unit

(** Live (not yet retired) instances of the class. *)
val live_locks : lock_class -> int

(** (avg wait, avg hold, requests) aggregated over all kernel locks,
    retired class instances included — the paper's Fig. 1b metric. *)
val lock_request_stats : t -> float * float * int

(** Zero every lock's statistics, the classes' retired totals too. *)
val reset_lock_stats : t -> unit

(** The [n] locks with the highest total wait (debug/analysis).  A lock
    class counts as one lock, its instances summed. *)
val top_locks_by_wait : t -> n:int -> (string * float * float * int) list

(** {1 CPU and accounting helpers (call from a simulated process)} *)

(** Syscall-context CPU on the pool's reserved cores. *)
val pool_cpu : t -> pool:Cgroup.t -> float -> unit

(** Kernel background CPU on any activated core (tenant "kernel"). *)
val kernel_cpu : t -> float -> unit

(** [syscall t ~pool f] charges two mode switches around [f] and counts
    one syscall for the pool. *)
val syscall : t -> pool:Cgroup.t -> (unit -> 'a) -> 'a

(** Charge [n] context switches to the pool (cost + counter). *)
val context_switches : t -> pool:Cgroup.t -> int -> unit

(** Charge a kernel memcpy of [bytes] to the pool. *)
val copy : t -> pool:Cgroup.t -> bytes:int -> unit

(** [blocking_io t ~pool f] runs the blocking backing I/O [f], charging
    the pool two context switches and recording the elapsed time as
    I/O wait. *)
val blocking_io : t -> pool:Cgroup.t -> (unit -> 'a) -> 'a

(** {1 Writeback} *)

(** Spawn the writeback coordinator and one flusher thread per activated
    core.  Idempotent. *)
val start_flushers : t -> unit

(** Force synchronous writeback of one file (fsync semantics); CPU is
    charged to the calling pool. *)
val fsync_file : t -> pool:Cgroup.t -> Page_cache.file -> unit
