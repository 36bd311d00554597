(** Typed observability context threaded through every simulation layer.

    One instance is owned per {!Engine} and shared by every component
    built on that engine (hardware, kernel, IPC, clients, experiments).
    Components intern typed handles once — a [counter], [gauge] or
    [histogram] identified by [(layer, name, key)] — and emit through
    them on the hot path with no string hashing.

    Conventions: [layer] is the subsystem ("sim", "hw", "kernel", "ipc",
    "client"), [name] the metric ("lock_wait", "io_wait", ...), [key]
    the instance (tenant/pool, device, lock or mount name).

    An optional bounded causal span store records per-op spans with
    ids and parent links when tracing is enabled (the CLI's [--trace] /
    [--trace-chrome]); when full, NEW spans are dropped so surviving
    children always find their parents.  The legacy flat span view is
    derived from the same store. *)

type t

(** {1 Creation} *)

(** Defaults consulted by {!create}.  Set once at program startup
    (e.g. from CLI flags) before any engine exists; engines created
    afterwards — including in parallel runner domains — inherit them. *)
val default_tracing : bool ref

val default_trace_capacity : int ref

(** Period (sim seconds) for {!Sampler}-based timeseries; [None] (the
    default) means experiments do not start a sampler.  Set by the CLI's
    [--timeseries] before any engine exists. *)
val default_sample_period : float option ref

(** How {!histogram} cells store observations.  [Exact] keeps every
    sample in a {!Stats.t} (the historical behavior — summaries and
    golden tables are unchanged).  [Sketch] keeps only a fixed-memory
    streaming quantile sketch ({!Sketch}) for high-cardinality fleet
    metrics.  [Both] keeps both, with the exact store preferred by
    every query — the sketch rides along as a differential-test
    subject. *)
type backing = Exact | Sketch | Both

(** [create ()] makes an empty context.  [tracing] and [trace_capacity]
    default to the refs above. *)
val create : ?tracing:bool -> ?trace_capacity:int -> unit -> t

(** {1 Typed handles}

    Handles are interned: the same [(layer, name, key)] always yields
    the same handle, and handles survive {!reset}.  Requesting an id
    under a different kind raises [Invalid_argument]. *)

type counter
type gauge
type histogram

val counter : t -> layer:string -> name:string -> key:string -> counter
val gauge : t -> layer:string -> name:string -> key:string -> gauge

(** [backing] (default [Exact]) applies only when the cell is first
    interned; later lookups return the existing cell whatever backing
    was requested. *)
val histogram :
  ?backing:backing -> t -> layer:string -> name:string -> key:string -> histogram

val add : counter -> float -> unit
val incr : counter -> unit
val counter_value : counter -> float

val set : gauge -> float -> unit

(** [set_max g v] raises the gauge to [v] if larger (high-water marks). *)
val set_max : gauge -> float -> unit

val gauge_value : gauge -> float

(** Record one observation into a histogram (into every backing the
    cell carries). *)
val observe : histogram -> float -> unit

(** Exact sample store of a histogram.  Raises [Invalid_argument] for a
    sketch-only cell. *)
val hist_stats : histogram -> Stats.t

(** Streaming sketch of a histogram, when it carries one. *)
val hist_sketch : histogram -> Sketch.t option

(** {1 Queries} *)

(** Scalar value of one cell: counter/gauge value, or a histogram's
    total.  0 when the cell does not exist. *)
val get : t -> layer:string -> name:string -> key:string -> float

(** Sum of the scalar values of every cell named [name] (optionally
    restricted to one layer), across all keys. *)
val sum : t -> ?layer:string -> name:string -> unit -> float

(** Like {!sum} but restricted to cells with key [key] — e.g. total
    context switches charged to one pool across layers. *)
val sum_key : t -> ?layer:string -> name:string -> key:string -> unit -> float

(** All [(key, scalar)] pairs of [(layer, name)], sorted by key. *)
val by_key : t -> layer:string -> name:string -> (string * float) list

type hist_summary = {
  h_count : int;
  h_total : float;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}

val hist_summary : t -> layer:string -> name:string -> key:string -> hist_summary option

(** {1 Snapshots} *)

type value =
  | Counter of float
  | Gauge of float
  | Histogram of hist_summary

type sample = { s_layer : string; s_name : string; s_key : string; s_value : value }

(** Deterministic snapshot: sorted by (layer, name, key). *)
val snapshot : t -> sample list

(** [prefix_keys p samples] prepends [p] to every sample's key — used to
    merge the snapshots of several single-cell testbeds into one report. *)
val prefix_keys : string -> sample list -> sample list

(** Deterministic plain-text rendering of {!snapshot} (tests, debug). *)
val dump : t -> string

(** {1 Causal span store}

    Each span has a dense id (> 0), an optional parent id (0 = root) and
    a phase classifying where the time went.  Emission is zero-cost when
    tracing is off: {!begin_span} returns 0 and allocates nothing (the
    backing array is only grown once the first span is recorded). *)

(** What an op was doing for the duration of the span. *)
type phase = Queue_wait | Lock_wait | Service | Network | Backoff

type cspan = {
  cs_id : int;
  cs_parent : int;  (** 0 = root span *)
  cs_layer : string;
  cs_name : string;
  cs_key : string;  (** instance: pool, device, lock, link... *)
  cs_phase : phase;
  cs_start : float;
  mutable cs_dur : float;  (** < 0 while the span is still open *)
}

val tracing : t -> bool
val set_tracing : t -> bool -> unit

(** Open a span; returns its id, or 0 when tracing is off or the store
    is full (new spans are dropped, old ones kept — children must be
    able to find their parents).  A [parent] from before the last
    {!reset} is recorded as 0. *)
val begin_span :
  t ->
  at:float ->
  parent:int ->
  layer:string ->
  name:string ->
  key:string ->
  phase:phase ->
  int

(** Close a span.  No-op for id 0, ids from before the last {!reset},
    and already-closed spans. *)
val end_span : t -> at:float -> int -> unit

(** Record an already-measured span in one call (parent explicit). *)
val emit_span :
  t ->
  at:float ->
  parent:int ->
  layer:string ->
  name:string ->
  key:string ->
  phase:phase ->
  dur:float ->
  unit

(** Parent id of a live span; 0 for roots, unknown or stale ids. *)
val parent_of : t -> int -> int

(** Closed spans sorted by [(cs_start, cs_id)] — a stable, deterministic
    export order (spans complete in end-time order internally). *)
val cspans : t -> cspan list

(** Spans dropped because the store was full. *)
val dropped_spans : t -> int

(** {1 Legacy flat span view}

    Derived from the causal store: one code path, no dual bookkeeping.
    A causal span appears as a flat span named ["name:key"] (or just
    ["name"] when the key is empty). *)

type span = { sp_at : float; sp_layer : string; sp_name : string; sp_dur : float }

(** [span t ~at ~layer ~name ~dur] records a parentless [Service] span;
    no-op unless tracing is enabled. *)
val span : t -> at:float -> layer:string -> name:string -> dur:float -> unit

(** Flat view of {!cspans}, same order. *)
val spans : t -> span list

(** {1 Periodic sampler}

    Deterministic timeseries: a driving process calls {!Sampler.tick} on
    a fixed sim-time period; every tick snapshots all counters and
    gauges (histograms excluded), sorted by (layer, name, key). *)

module Sampler : sig
  type point = { pt_time : float; pt_samples : sample list }
  type s

  (** Raises [Invalid_argument] when [period <= 0]. *)
  val create : t -> period:float -> s

  val period : s -> float
  val tick : s -> now:float -> unit

  (** Points in chronological order. *)
  val points : s -> point list

  val clear : s -> unit

  (** Prefix the key of every sample in every point, mirroring
      {!Obs.prefix_keys} — used when merging the timeseries of several
      per-cell testbeds into one report. *)
  val prefix_keys : string -> point list -> point list
end

(** {1 Reset} *)

(** Zero every counter/gauge, clear every histogram, discard all spans.
    Handles remain valid (cells are cleared in place); span ids keep
    advancing so stale {!end_span} calls from surviving processes are
    ignored. *)
val reset : t -> unit
