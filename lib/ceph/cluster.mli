open Danaus_sim
open Danaus_hw

(** The assembled storage cluster: OSDs + MDS behind the network.

    Every operation is called from a client-host process and blocks for
    the full round trip: client-host TX link, server-host RX link, OSD or
    MDS service, and the reply path.  Data is striped over
    {!Striper.default_object_size} objects and placed by {!Crush}. *)

type t

(** [create engine ~net ~client_node ~server_node ~osds ~mds ~replicas
    ~object_size] wires the cluster.  [client_node]/[server_node] are the
    two machines' network attachments (the 20 Gbps bonded links of the
    paper's testbed). *)
val create :
  Engine.t ->
  net:Net.t ->
  client_node:Net.node ->
  server_node:Net.node ->
  osds:Osd.t array ->
  mds:Mds.t ->
  replicas:int ->
  object_size:int ->
  t

(** [for_host t ~client_node] is the same cluster as seen from another
    client machine: identical OSDs, MDS and namespace, but data and
    metadata traffic uses [client_node]'s network link.  This is what
    makes cross-host data sharing — and container migration — work over
    the shared filesystem (§5, §9). *)
val for_host : t -> client_node:Net.node -> t

val osds : t -> Osd.t array
val mds : t -> Mds.t
val object_size : t -> int

(** {1 Data path} *)

(** Data-path failure: every replica of the object is unavailable in the
    client's view, or the op was addressed to a dead OSD under a stale
    osdmap and timed out.  Clients retry with backoff ({!Retry} in
    [lib/client]).  [Deadline_exceeded] means the caller's op deadline
    (see {!Danaus_sim.Engine.deadline}) had already passed when the
    object op started: the op fails fast without touching the network,
    counted under [ceph/deadline_rejects]. *)
type io_error = No_replica of string | Deadline_exceeded

val io_error_to_string : io_error -> string

(** Write [len] bytes of inode [ino] starting at [off]: striped into
    objects, each sent over the network and committed on [replicas]
    OSDs. *)
val write_range : t -> ino:int -> off:int -> len:int -> (unit, io_error) result

(** Read [len] bytes of inode [ino] from the primary OSDs. *)
val read_range : t -> ino:int -> off:int -> len:int -> (unit, io_error) result

(** {1 Monitor (fault tolerance)}

    Without a monitor the data path consults the OSDs' instant [is_up]
    state.  [enable_monitor] switches to osdmap semantics: a heartbeat
    process observes the OSDs every [heartbeat] seconds and marks one
    down after [grace] seconds of silence; until then, ops addressed to
    the dead OSD pay [op_timeout] and fail (clients retry).  Writes that
    skip a down replica record the object as degraded; when the OSD
    returns, a re-sync process replays the degraded objects from the
    surviving replicas (real disk/CPU traffic) before the map shows the
    OSD up again.  Emits [ceph/osd_mark_down], [ceph/failed_ops],
    [ceph/degraded_objects], [ceph/resync_bytes] counters and a
    [ceph/recovery_time] gauge per OSD.

    [?recovery] replaces the instant re-sync with the paced recovery
    engine of {!Recovery}: per-object [clean]/[degraded]/[backfilling]
    state, a peering pass after mark-up or replacement, chunked paced
    transfers charging OSD disk and server-link time, degraded-mode
    reads that redirect to a surviving clean replica instead of timing
    out, writes to in-repair objects logged for re-sync, and full
    backfill of a replaced OSD.  Adds [ceph/degraded_now] and
    [ceph/recovery_active] gauges plus [ceph/recovered_bytes],
    [ceph/recovery_read_bytes], [ceph/degraded_reads],
    [ceph/backfill_objects] and [ceph/unrecoverable_objects] counters.
    Without [?recovery] the legacy semantics are preserved exactly. *)
val enable_monitor :
  ?heartbeat:float ->
  ?grace:float ->
  ?op_timeout:float ->
  ?recovery:Recovery.config ->
  t ->
  unit

(** Stop the heartbeat process and revert to instant [is_up] checks. *)
val disable_monitor : t -> unit

(** The client-visible availability of OSD [i] (the osdmap when a
    monitor runs, the instant state otherwise). *)
val monitor_sees_up : t -> int -> bool

(** {1 Recovery (self-healing)} *)

(** [replace_osd t i] swaps OSD [i] for a blank, healthy replacement:
    stored objects are lost and the monitor schedules a peering pass
    that queues everything CRUSH places on [i] for backfill. *)
val replace_osd : t -> int -> unit

(** [force_mark_up t i] forces the osdmap to show an actually-up OSD
    without waiting for the heartbeat (running peering first if the OSD
    was replaced), so degraded serving starts immediately. *)
val force_mark_up : t -> int -> unit

(** (object, OSD) pairs still awaiting repair; 0 once recovery has
    drained (and always 0 without a monitor). *)
val degraded_now : t -> int

(** The monitor's recovery pacer, when one is active — the hook point
    for {!Recovery.set_gate} (e.g. a fleet health gate that holds
    repair traffic during client SLO emergencies). *)
val recovery_pacer : t -> Recovery.pacer option

(** Whether a re-sync/recovery pass for OSD [i] is in flight. *)
val recovering : t -> int -> bool

(** Replica state of [obj] on OSD [i] as the monitor sees it. *)
val object_state : t -> int -> obj:string -> Recovery.obj_state

(** Live width of [obj]'s acting set: replicas actually up with a clean
    copy.  Converges back to [replicas] when recovery completes. *)
val acting_width : t -> obj:string -> int

(** Drop all objects of inode [ino] up to [size] bytes, with their
    memoised names and placements. *)
val delete_range : t -> ino:int -> size:int -> unit

(** Number of objects whose CRUSH placement is memoised. *)
val cached_placements : t -> int

(** {1 Metadata path (one network round trip + MDS service each)} *)

val lookup : t -> string -> Namespace.attr option
val create_file : t -> string -> (Namespace.attr, Namespace.error) result
val mkdir_p : t -> string -> (Namespace.attr, Namespace.error) result
val readdir : t -> string -> (string list, Namespace.error) result
val unlink : t -> string -> (unit, Namespace.error) result
val rename : t -> src:string -> dst:string -> (unit, Namespace.error) result
val set_size : t -> string -> int -> (unit, Namespace.error) result

(** Cost-free namespace access for dataset setup (no simulated time). *)
val namespace : t -> Namespace.t
