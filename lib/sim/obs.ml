(* Typed observability context threaded through every simulation layer.

   One instance is owned by each Engine; layers intern handles once
   (cheap float refs / Stats.t) and emit through them on the hot path,
   so nothing stringly-typed remains in the per-operation code.  The
   interning table keyed by (layer, name, key) is only consulted at
   handle-creation and query time. *)

type hist_summary = {
  h_count : int;
  h_total : float;
  h_mean : float;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
}

type value =
  | Counter of float
  | Gauge of float
  | Histogram of hist_summary

type sample = { s_layer : string; s_name : string; s_key : string; s_value : value }

type span = { sp_at : float; sp_layer : string; sp_name : string; sp_dur : float }

type phase = Queue_wait | Lock_wait | Service | Network | Backoff

type cspan = {
  cs_id : int;
  cs_parent : int; (* 0 = no parent *)
  cs_layer : string;
  cs_name : string;
  cs_key : string;
  cs_phase : phase;
  cs_start : float;
  mutable cs_dur : float; (* < 0 while the span is still open *)
}

(* Counters and gauges are single-field all-float records: flat in
   memory, so [add]/[set] store the float unboxed.  A [float ref] cell
   boxed a fresh float on every update — measurable on per-event and
   per-block paths (CPU burst accounting, dirty-page gauges). *)
type fcell = { mutable v : float }

type counter = fcell
type gauge = fcell

(* A histogram is backed by an exact sample store, a streaming quantile
   sketch, or both.  Exact is the default (goldens and differential
   tests read it); the sketch backing is for high-cardinality fleet
   metrics where storing every sample does not scale.  [Both] keeps the
   exact store as the oracle the sketch is differentially tested
   against. *)
type backing = Exact | Sketch | Both

type histogram = { hx : Stats.t option; hs : Sketch.t option }

type cell = C of fcell | G of fcell | H of histogram

type t = {
  cells : (string * string * string, cell) Hashtbl.t;
  mutable tracing : bool;
  trace_capacity : int;
  (* Causal span store: append-only, grown geometrically up to
     [trace_capacity].  When full, new spans are DROPPED (never the old
     ones): a surviving child must be able to find its parent, so the
     store keeps the oldest spans — the opposite of the pre-causal ring.
     Ids are dense and survive {!reset} ([ctrace_base] advances), so a
     span opened before a reset can never close a post-reset span. *)
  mutable ctrace : cspan array;
  mutable ctrace_len : int;
  mutable ctrace_base : int; (* ids <= base belong to discarded epochs *)
  mutable ctrace_dropped : int;
}

(* Defaults consulted at [create] time: the CLI sets them once at startup
   (before any engine exists), so parallel experiment domains only ever
   read them. *)
let default_tracing = ref false
let default_trace_capacity = ref 4096
let default_sample_period : float option ref = ref None

let dummy_cspan =
  {
    cs_id = 0;
    cs_parent = 0;
    cs_layer = "";
    cs_name = "";
    cs_key = "";
    cs_phase = Service;
    cs_start = 0.0;
    cs_dur = 0.0;
  }

let create ?tracing ?trace_capacity () =
  let tracing = Option.value ~default:!default_tracing tracing in
  let capacity =
    Stdlib.max 1 (Option.value ~default:!default_trace_capacity trace_capacity)
  in
  {
    cells = Hashtbl.create 64;
    tracing;
    trace_capacity = capacity;
    ctrace = [||];
    ctrace_len = 0;
    ctrace_base = 0;
    ctrace_dropped = 0;
  }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let intern t ~layer ~name ~key make expect =
  let id = (layer, name, key) in
  match Hashtbl.find t.cells id with
  | cell ->
      if kind_name cell <> expect then
        invalid_arg
          (Printf.sprintf "Obs: %s/%s[%s] is a %s, requested as %s" layer name
             key (kind_name cell) expect);
      cell
  | exception Not_found ->
      let cell = make () in
      Hashtbl.add t.cells id cell;
      cell

let counter t ~layer ~name ~key =
  match intern t ~layer ~name ~key (fun () -> C { v = 0.0 }) "counter" with
  | C r -> r
  | G _ | H _ -> assert false

let gauge t ~layer ~name ~key =
  match intern t ~layer ~name ~key (fun () -> G { v = 0.0 }) "gauge" with
  | G r -> r
  | C _ | H _ -> assert false

let make_histogram = function
  | Exact -> { hx = Some (Stats.create ()); hs = None }
  | Sketch -> { hx = None; hs = Some (Sketch.create ()) }
  | Both -> { hx = Some (Stats.create ()); hs = Some (Sketch.create ()) }

let histogram ?(backing = Exact) t ~layer ~name ~key =
  match
    intern t ~layer ~name ~key (fun () -> H (make_histogram backing)) "histogram"
  with
  | H s -> s
  | C _ | G _ -> assert false

let[@inline] add (c : counter) dv = c.v <- c.v +. dv
let[@inline] incr c = c.v <- c.v +. 1.0
let counter_value (c : counter) = c.v
let[@inline] set (g : gauge) dv = g.v <- dv
let[@inline] set_max (g : gauge) dv = if dv > g.v then g.v <- dv
let gauge_value (g : gauge) = g.v

let observe (h : histogram) v =
  (match h.hx with Some s -> Stats.add s v | None -> ());
  match h.hs with Some sk -> Sketch.add sk v | None -> ()

let hist_stats (h : histogram) =
  match h.hx with
  | Some s -> s
  | None -> invalid_arg "Obs.hist_stats: sketch-backed histogram has no exact store"

let hist_sketch (h : histogram) = h.hs

let hist_total (h : histogram) =
  match h.hx with
  | Some s -> Stats.total s
  | None -> ( match h.hs with Some sk -> Sketch.total sk | None -> 0.0)

(* ------------------------------------------------------------------ *)
(* Queries *)

let get t ~layer ~name ~key =
  match Hashtbl.find_opt t.cells (layer, name, key) with
  | Some (C r) | Some (G r) -> r.v
  | Some (H h) -> hist_total h
  | None -> 0.0

let fold_name t ?layer ~name f init =
  Hashtbl.fold
    (fun (l, n, k) cell acc ->
      if String.equal n name && (match layer with None -> true | Some l' -> String.equal l l')
      then f acc ~layer:l ~key:k cell
      else acc)
    t.cells init

let cell_scalar = function
  | C r | G r -> r.v
  | H h -> hist_total h

let sum t ?layer ~name () =
  fold_name t ?layer ~name (fun acc ~layer:_ ~key:_ cell -> acc +. cell_scalar cell) 0.0

let sum_key t ?layer ~name ~key () =
  fold_name t ?layer ~name
    (fun acc ~layer:_ ~key:k cell ->
      if String.equal k key then acc +. cell_scalar cell else acc)
    0.0

let by_key t ~layer ~name =
  fold_name t ~layer ~name (fun acc ~layer:_ ~key cell -> (key, cell_scalar cell) :: acc) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The exact store wins when present so summaries (and therefore golden
   tables) are bit-identical to the pre-sketch code. *)
let summarize (h : histogram) =
  match h.hx with
  | Some s ->
      {
        h_count = Stats.count s;
        h_total = Stats.total s;
        h_mean = Stats.mean s;
        h_p50 = Stats.percentile s 50.0;
        h_p95 = Stats.percentile s 95.0;
        h_p99 = Stats.percentile s 99.0;
        h_max = Stats.max s;
      }
  | None -> (
      match h.hs with
      | Some sk ->
          {
            h_count = Sketch.count sk;
            h_total = Sketch.total sk;
            h_mean = Sketch.mean sk;
            h_p50 = Sketch.percentile sk 50.0;
            h_p95 = Sketch.percentile sk 95.0;
            h_p99 = Sketch.percentile sk 99.0;
            h_max = Sketch.max sk;
          }
      | None ->
          {
            h_count = 0;
            h_total = 0.0;
            h_mean = 0.0;
            h_p50 = 0.0;
            h_p95 = 0.0;
            h_p99 = 0.0;
            h_max = 0.0;
          })

let hist_summary t ~layer ~name ~key =
  match Hashtbl.find_opt t.cells (layer, name, key) with
  | Some (H h) -> Some (summarize h)
  | Some (C _) | Some (G _) | None -> None

let snapshot t =
  Hashtbl.fold
    (fun (l, n, k) cell acc ->
      let v =
        match cell with
        | C r -> Counter r.v
        | G r -> Gauge r.v
        | H h -> Histogram (summarize h)
      in
      { s_layer = l; s_name = n; s_key = k; s_value = v } :: acc)
    t.cells []
  |> List.sort (fun a b ->
         match String.compare a.s_layer b.s_layer with
         | 0 -> (
             match String.compare a.s_name b.s_name with
             | 0 -> String.compare a.s_key b.s_key
             | c -> c)
         | c -> c)

let prefix_keys prefix samples =
  List.map (fun s -> { s with s_key = prefix ^ s.s_key }) samples

(* ------------------------------------------------------------------ *)
(* Causal span store *)

let tracing t = t.tracing
let set_tracing t b = t.tracing <- b

let ctrace_grow t =
  let cap = Array.length t.ctrace in
  let cap' = Stdlib.min t.trace_capacity (Stdlib.max 64 (cap * 2)) in
  let a = Array.make cap' dummy_cspan in
  Array.blit t.ctrace 0 a 0 t.ctrace_len;
  t.ctrace <- a

(* Returns the span id, or 0 if tracing is off / the store is full.  Id 0
   doubles as "no parent", so every consumer treats it as a no-op. *)
let begin_span t ~at ~parent ~layer ~name ~key ~phase =
  if not t.tracing then 0
  else if t.ctrace_len >= t.trace_capacity then begin
    t.ctrace_dropped <- t.ctrace_dropped + 1;
    0
  end
  else begin
    if t.ctrace_len >= Array.length t.ctrace then ctrace_grow t;
    let id = t.ctrace_base + t.ctrace_len + 1 in
    t.ctrace.(t.ctrace_len) <-
      {
        cs_id = id;
        cs_parent = (if parent > t.ctrace_base then parent else 0);
        cs_layer = layer;
        cs_name = name;
        cs_key = key;
        cs_phase = phase;
        cs_start = at;
        cs_dur = -1.0;
      };
    t.ctrace_len <- t.ctrace_len + 1;
    id
  end

(* Ids from before the last reset fall at or below [ctrace_base] and are
   ignored — a long-lived background process may legitimately try to close
   a span that a reset discarded. *)
let end_span t ~at id =
  if id > t.ctrace_base && id <= t.ctrace_base + t.ctrace_len then begin
    let cs = t.ctrace.(id - t.ctrace_base - 1) in
    if cs.cs_dur < 0.0 then cs.cs_dur <- at -. cs.cs_start
  end

let emit_span t ~at ~parent ~layer ~name ~key ~phase ~dur =
  let id = begin_span t ~at ~parent ~layer ~name ~key ~phase in
  end_span t ~at:(at +. dur) id

let parent_of t id =
  if id > t.ctrace_base && id <= t.ctrace_base + t.ctrace_len then
    t.ctrace.(id - t.ctrace_base - 1).cs_parent
  else 0

let compare_cspan a b =
  match Float.compare a.cs_start b.cs_start with
  | 0 -> Int.compare a.cs_id b.cs_id
  | c -> c

(* Closed spans, sorted by (start, id): completed spans are appended at
   their END time, so the raw store order is not stable for export. *)
let cspans t =
  let acc = ref [] in
  for i = t.ctrace_len - 1 downto 0 do
    let cs = t.ctrace.(i) in
    if cs.cs_dur >= 0.0 then acc := cs :: !acc
  done;
  List.stable_sort compare_cspan !acc

(* Legacy flat span view, derived from the causal store (one code path). *)
let span t ~at ~layer ~name ~dur =
  emit_span t ~at ~parent:0 ~layer ~name ~key:"" ~phase:Service ~dur

let flat_name cs =
  if String.equal cs.cs_key "" then cs.cs_name
  else cs.cs_name ^ ":" ^ cs.cs_key

let spans t =
  List.map
    (fun cs ->
      {
        sp_at = cs.cs_start;
        sp_layer = cs.cs_layer;
        sp_name = flat_name cs;
        sp_dur = cs.cs_dur;
      })
    (cspans t)

let dropped_spans t = t.ctrace_dropped

(* ------------------------------------------------------------------ *)

(* Handles stay valid across a reset: cells are cleared in place, never
   replaced (experiments reset between the warm-up and measured phase).
   The span store is discarded; [ctrace_base] advances past every id ever
   handed out so stale end_span calls from surviving processes are inert. *)
let reset t =
  Hashtbl.iter
    (fun _ cell ->
      match cell with
      | C r | G r -> r.v <- 0.0
      | H h ->
          (match h.hx with Some s -> Stats.clear s | None -> ());
          ( match h.hs with Some sk -> Sketch.clear sk | None -> ()))
    t.cells;
  t.ctrace_base <- t.ctrace_base + t.ctrace_len;
  t.ctrace_len <- 0;
  t.ctrace_dropped <- 0;
  if Array.length t.ctrace > 0 then
    Array.fill t.ctrace 0 (Array.length t.ctrace) dummy_cspan

let dump t =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      let v =
        match s.s_value with
        | Counter v -> Printf.sprintf "counter %.6g" v
        | Gauge v -> Printf.sprintf "gauge %.6g" v
        | Histogram h ->
            Printf.sprintf
              "histogram count=%d total=%.6g mean=%.6g p50=%.6g p95=%.6g p99=%.6g max=%.6g"
              h.h_count h.h_total h.h_mean h.h_p50 h.h_p95 h.h_p99 h.h_max
      in
      Buffer.add_string buf
        (Printf.sprintf "%s/%s[%s] = %s\n" s.s_layer s.s_name s.s_key v))
    (snapshot t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Periodic sampler: deterministic timeseries of counters/gauges.

   A driving process calls [tick] on a fixed sim-time period; each tick
   snapshots every counter and gauge (histograms are excluded — their
   summaries are not cheap and the timeline figures only need rates and
   levels).  Points accumulate newest-first and are reversed on read. *)

module Sampler = struct
  type point = { pt_time : float; pt_samples : sample list }

  type s = { sa_obs : t; sa_period : float; mutable sa_points : point list }

  let create obs ~period =
    if period <= 0.0 then invalid_arg "Obs.Sampler.create: period <= 0";
    { sa_obs = obs; sa_period = period; sa_points = [] }

  let period s = s.sa_period

  let tick s ~now =
    let samples =
      Hashtbl.fold
        (fun (l, n, k) cell acc ->
          match cell with
          | C r -> { s_layer = l; s_name = n; s_key = k; s_value = Counter r.v } :: acc
          | G r -> { s_layer = l; s_name = n; s_key = k; s_value = Gauge r.v } :: acc
          | H _ -> acc)
        s.sa_obs.cells []
      |> List.sort (fun a b ->
             match String.compare a.s_layer b.s_layer with
             | 0 -> (
                 match String.compare a.s_name b.s_name with
                 | 0 -> String.compare a.s_key b.s_key
                 | c -> c)
             | c -> c)
    in
    s.sa_points <- { pt_time = now; pt_samples = samples } :: s.sa_points

  let points s = List.rev s.sa_points
  let clear s = s.sa_points <- []

  let prefix_keys prefix pts =
    List.map (fun p -> { p with pt_samples = prefix_keys prefix p.pt_samples }) pts
end
