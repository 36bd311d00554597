open Danaus_sim
open Danaus_hw

(** Shared kernel page cache.

    One instance exists per simulated host kernel.  Cached data is tracked
    at block granularity per file; dirty blocks carry the time they were
    dirtied so the flusher can honour the expire interval.  Dirty limits
    are per *mount* (Linux: per-bdi / per-filesystem max dirty bytes —
    the paper sets them to 50% of the pool RAM for the kernel Ceph
    client), while the eviction limit is global (host memory).

    Memory is charged to the host's page-cache domain — deliberately not
    to the pool that caused it, reproducing the "inaccurate accounting of
    shared kernel resources" the paper criticises. *)

type t

type mount

type file

(** [create engine ~mem ~limit ~block] makes an empty cache charging
    pages to [mem], evicting above [limit] bytes, tracking [block]-byte
    blocks. *)
val create : Engine.t -> mem:Memory.t -> limit:int -> block:int -> t

(** [add_mount t ~name ~max_dirty ?mem_limit ()] registers a filesystem;
    writers on it throttle once its dirty bytes exceed [max_dirty].
    [mem_limit], when given, bounds the mount's cached bytes (cgroup v2
    memory accounting covers the page cache a pool generates, so a
    kernel-client mount evicts at its pool's limit). *)
val add_mount : t -> name:string -> max_dirty:int -> ?mem_limit:int -> unit -> mount

val mount_name : mount -> string

(** Dirty bytes above which background writeback starts for the mount
    (half of its hard limit, as in Linux's dirty_background_ratio). *)
val background_threshold : mount -> int

(** [file t mount ~key ~flush] returns the (interned) cache state of the
    file [key].  [flush ~bytes] writes [bytes] of dirty data to backing
    storage; it runs in flusher-thread context and may block. *)
val file : t -> mount -> key:string -> flush:(bytes:int -> unit) -> file

(** Bytes of [off, off+len) not currently cached. *)
val missing : file -> off:int -> len:int -> int

(** Insert clean data (after reading it from backing storage). *)
val insert_clean : file -> off:int -> len:int -> unit

(** Record a buffered write: blocks become present and dirty. *)
val write : file -> off:int -> len:int -> unit

(** Dirty bytes of one file. *)
val dirty_bytes_of : file -> int

(** Drop the file's blocks (all must be clean; flush first). *)
val invalidate : file -> unit

(** [forget file] tells the cache the file's owner evicted it (the
    inode was unlinked and its last descriptor closed).  A file holding
    no block leaves the cache's tables at once; one still holding
    blocks keeps its accounting and its place in the eviction and
    writeback order, and leaves once eviction has dropped its last
    block.  Looking the key up again with {!file} before then revives
    it. *)
val forget : file -> unit

(** Block the caller while the file's mount is over its dirty limit.
    Woken by the flusher as data is cleaned. *)
val throttle : file -> unit

(** Same, for callers that hold the mount rather than a file. *)
val throttle_mount : t -> mount -> unit

(** {1 Flusher interface} *)

(** [take_dirty t mount ~older_than ~max_bytes] selects up to
    [max_bytes] dirty bytes (oldest first, only blocks dirtied before
    [older_than]) for writeback and returns the per-file amounts.  The
    selected bytes keep counting against the mount's dirty total (they
    are "under writeback") until {!writeback_complete} — so throttled
    writers only resume once data actually reached backing storage. *)
val take_dirty :
  t -> mount -> older_than:float -> max_bytes:int -> (file * int) list

(** [flush_file file] selects *all* dirty bytes of one file (fsync). *)
val flush_file : file -> (file * int) list

(** Run a file's flush callback for the given byte count. *)
val run_flush : file -> bytes:int -> unit

(** Account [bytes] of completed writeback on the mount; wakes throttled
    writers once the mount is back under its limit. *)
val writeback_complete : t -> mount -> bytes:int -> unit

(** Drop a file's dirty data without writing it back (truncate). *)
val discard_dirty : file -> unit

(** The mount a file belongs to. *)
val mount_of : file -> mount

(** Bytes currently cached on behalf of the mount. *)
val mount_used : mount -> int

val dirty_bytes : t -> mount -> int
val total_dirty : t -> int
val mounts : t -> mount list

(** Total bytes cached (clean + dirty). *)
val used_bytes : t -> int

(** Time the oldest dirty block of the mount was dirtied, if any. *)
val oldest_dirty : t -> mount -> float option

(** {1 Invariants} *)

(** Bytes the mount ever dirtied / ever retired by writeback.  Plain
    accumulators (not [Obs] cells), so they survive [Obs.reset]; the
    conservation law is [dirtied_total = wb_total + dirty_bytes]. *)
val dirtied_total : mount -> int

val wb_total : mount -> int

(** Check one mount's conservation laws through {!Invariant} (no-op when
    the invariant mode is [Off]). *)
val check_mount : t -> mount -> unit

(** Check every mount plus the cache-wide laws: per-mount occupancies
    sum to the memory pool's usage, per-mount dirty sums to the cache's
    grand total.  Called periodically by the kernel's flusher sweep and
    at the end of experiments. *)
val check_invariants : t -> unit
