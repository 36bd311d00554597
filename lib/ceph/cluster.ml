open Danaus_sim
open Danaus_hw

type io_error = No_replica of string | Deadline_exceeded

let io_error_to_string = function
  | No_replica obj -> "no replica of " ^ obj ^ " available"
  | Deadline_exceeded -> "op deadline exceeded"

(* Monitor/osdmap state, shared by every host's view of the cluster.
   [map_up] is the osdmap the clients act on; it lags reality by the
   heartbeat + grace window (stale-map semantics: ops addressed to a
   crashed-but-not-yet-marked-down OSD time out and fail, and the client
   retries until the map catches up). *)
type monitor = {
  mutable active : bool;
  heartbeat : float;
  grace : float;
  op_timeout : float;
  (* [recovery = Some cfg] switches from the legacy instant re-sync to
     the paced recovery engine (peering, degraded reads, backfill).
     [None] keeps the original semantics bit-for-bit. *)
  recovery : Recovery.config option;
  pacer : Recovery.pacer option;
  map_up : bool array;
  last_seen : float array;
  down_at : float array;
  resyncing : bool array;
  (* an OSD that was swapped for a blank device awaits a peering pass
     that enumerates everything CRUSH places on it *)
  replaced : bool array;
  degraded : (string, int) Hashtbl.t array;
  backfilling : (string, int) Hashtbl.t array;
  mutable degraded_live : int;
  mutable draining : int;
  markdown_c : Obs.counter;
  failed_c : Obs.counter;
  degraded_c : Obs.counter;
  resync_c : Obs.counter;
  recovery_g : Obs.gauge array;
  degraded_now_g : Obs.gauge;
  recovery_active_g : Obs.gauge;
  recovered_c : Obs.counter;
  recovery_read_c : Obs.counter;
  degraded_reads_c : Obs.counter;
  backfill_c : Obs.counter;
  unrecoverable_c : Obs.counter;
}

type t = {
  engine : Engine.t;
  net : Net.t;
  client_node : Net.node;
  server_node : Net.node;
  cluster_osds : Osd.t array;
  cluster_mds : Mds.t;
  replicas : int;
  obj_size : int;
  monitor : monitor option ref;
  (* obj -> CRUSH placement.  Rendezvous hashing is pure in the object
     name, so the first computation (FNV per OSD + sort) is definitive;
     the read/write hot path then costs one table probe instead of six
     string formats and a sort per IO. *)
  placements : (string, int list) Hashtbl.t;
}

let message_bytes = 256

let create engine ~net ~client_node ~server_node ~osds ~mds ~replicas
    ~object_size =
  Danaus_check.Check.precondition ~layer:"ceph" ~what:"create_args"
    ~detail:(fun () ->
      Printf.sprintf "%d osds, %d replicas, object_size %d" (Array.length osds)
        replicas object_size)
    (Array.length osds >= replicas && replicas >= 1 && object_size > 0);
  {
    engine;
    net;
    client_node;
    server_node;
    cluster_osds = osds;
    cluster_mds = mds;
    replicas;
    obj_size = object_size;
    monitor = ref None;
    placements = Hashtbl.create 4096;
  }

(* A second client machine's view of the same cluster: shares the OSDs,
   MDS and namespace, but enters the network through its own link. *)
let for_host t ~client_node = { t with client_node }

let osds t = t.cluster_osds
let mds t = t.cluster_mds
let object_size t = t.obj_size

let to_server t ~bytes =
  Net.transfer t.net ~src:t.client_node ~dst:t.server_node ~bytes

let to_client t ~bytes =
  Net.transfer t.net ~src:t.server_node ~dst:t.client_node ~bytes

let placement t obj =
  match Hashtbl.find t.placements obj with
  | place -> place
  | exception Not_found ->
  let place =
    Crush.place ~osds:(Array.length t.cluster_osds) ~replicas:t.replicas obj
  in
  (* CRUSH's contract: exactly [replicas] placements, all distinct, all
     addressing real OSDs — a violation here silently corrupts the
     redundancy the fault experiments measure. *)
  Danaus_check.Check.invariant ~obs:(Engine.obs t.engine) ~layer:"ceph"
    ~what:"placement_legal"
    ~detail:(fun () ->
      Printf.sprintf "%s -> [%s] with %d osds, %d replicas" obj
        (String.concat ";" (List.map string_of_int place))
        (Array.length t.cluster_osds) t.replicas)
    (fun () ->
      List.length place = t.replicas
      && List.for_all (fun i -> i >= 0 && i < Array.length t.cluster_osds) place
      && List.length (List.sort_uniq Int.compare place) = List.length place);
  Hashtbl.add t.placements obj place;
  place

(* The client's view of an OSD's availability: the osdmap when a monitor
   runs (stale by up to heartbeat + grace), instant truth otherwise. *)
let view_up t i =
  match !(t.monitor) with
  | None -> Osd.is_up t.cluster_osds.(i)
  | Some m -> m.map_up.(i)

(* Live count of (object, OSD) pairs still awaiting repair, mirrored in
   the [ceph/degraded_now] gauge; the [ceph/degraded_objects] counter
   stays monotonic as before. *)
let note_degraded m delta =
  m.degraded_live <- m.degraded_live + delta;
  Obs.set m.degraded_now_g (float_of_int m.degraded_live)

(* Remember that [obj] missed a write on OSD [i]; replayed by re-sync
   when the OSD comes back. *)
let record_degraded m i ~obj ~bytes =
  (match Hashtbl.find_opt m.degraded.(i) obj with
  | Some prev -> Hashtbl.replace m.degraded.(i) obj (Stdlib.max prev bytes)
  | None ->
      Hashtbl.replace m.degraded.(i) obj bytes;
      note_degraded m 1);
  Obs.incr m.degraded_c

(* A write missed by OSD [i] lands in whichever repair queue already
   tracks the object, so an object is never in both tables at once. *)
let log_missed_write m i ~obj ~bytes =
  match Hashtbl.find_opt m.backfilling.(i) obj with
  | Some prev ->
      Hashtbl.replace m.backfilling.(i) obj (Stdlib.max prev bytes);
      Obs.incr m.degraded_c
  | None -> record_degraded m i ~obj ~bytes

(* [obj]'s copy on OSD [i] is not serviceable: it missed writes while
   the OSD was down, or awaits backfill after a replacement. *)
let dirty_on m i ~obj =
  Hashtbl.mem m.degraded.(i) obj || Hashtbl.mem m.backfilling.(i) obj

let recovery_monitor t =
  match !(t.monitor) with
  | Some ({ recovery = Some _; _ } as m) -> Some m
  | _ -> None

let fail_op t =
  match !(t.monitor) with
  | None -> ()
  | Some m -> Obs.incr m.failed_c

(* An op whose caller deadline has already passed fails fast before
   paying the network round trip.  The deadline reaches this layer
   through the per-process slot ({!Engine.deadline}), inherited across
   the striper's per-object [Engine.fork] fan-out. *)
let past_deadline t =
  match Engine.deadline () with
  | Some dl -> Engine.now t.engine >= dl
  | None -> false

let deadline_reject t =
  Obs.incr
    (Obs.counter (Engine.obs t.engine) ~layer:"ceph" ~name:"deadline_rejects"
       ~key:"cluster");
  Error Deadline_exceeded

let write_object t ~obj ~bytes =
  if past_deadline t then deadline_reject t
  else begin
  let place = placement t obj in
  (match !(t.monitor) with
  | None -> ()
  | Some m ->
      (* replicas the map already knows are down miss this write *)
      List.iter
        (fun i -> if not m.map_up.(i) then log_missed_write m i ~obj ~bytes)
        place);
  match List.filter (fun i -> view_up t i) place with
  | [] ->
      fail_op t;
      Error (No_replica obj)
  | primary :: _ as targets -> (
      to_server t ~bytes:(bytes + message_bytes);
      match !(t.monitor) with
      | Some m when not (Osd.is_up t.cluster_osds.(primary)) ->
          (* stale map: the op is addressed to a dead primary and times
             out; the client retries until mark-down updates the map *)
          let start = Engine.now t.engine in
          Engine.sleep m.op_timeout;
          Trace.emit t.engine ~layer:"ceph" ~name:"op_timeout" ~key:obj
            ~phase:Backoff ~start ~dur:m.op_timeout;
          Obs.incr m.failed_c;
          Error (No_replica obj)
      | monitor ->
          let wg = Waitgroup.create t.engine in
          let committed = ref 0 in
          List.iter
            (fun i ->
              (* under paced recovery a replica whose copy is still being
                 repaired skips the write: the commit would race the
                 backfill, so it is logged for re-sync instead *)
              let repairing =
                match monitor with
                | Some ({ recovery = Some _; _ } as m) -> dirty_on m i ~obj
                | _ -> false
              in
              if Osd.is_up t.cluster_osds.(i) && not repairing then begin
                incr committed;
                Waitgroup.add wg;
                Engine.fork (fun () ->
                    Osd.write t.cluster_osds.(i) ~obj ~bytes;
                    Waitgroup.finish wg)
              end
              else
                (* non-primary replica died under a stale map (or is mid
                   repair): commit on the live replicas, leave the object
                   degraded *)
                Option.iter
                  (fun m -> log_missed_write m i ~obj ~bytes)
                  monitor)
            targets;
          Waitgroup.wait wg;
          if !committed = 0 then begin
            (* every map-up replica is mid-repair: nothing durable took
               the write (only reachable in recovery mode) *)
            fail_op t;
            Error (No_replica obj)
          end
          else begin
            to_client t ~bytes:message_bytes;
            Ok ()
          end)
  end

let read_object t ~obj ~bytes =
  if past_deadline t then deadline_reject t
  else
  let place = placement t obj in
  (* primary first; fail over to the next up replica in CRUSH order *)
  let legacy = List.find_opt (fun i -> view_up t i) place in
  let choice =
    match recovery_monitor t with
    | None -> legacy
    | Some m -> (
        (* degraded-mode read: prefer a replica that is both actually
           serving and holds a clean copy over the osdmap's stale
           primary choice, instead of timing out into a retry *)
        match
          List.find_opt
            (fun i ->
              view_up t i
              && Osd.is_up t.cluster_osds.(i)
              && not (dirty_on m i ~obj))
            place
        with
        | Some i ->
            if legacy <> Some i then Obs.incr m.degraded_reads_c;
            Some i
        | None -> legacy)
  in
  match choice with
  | None ->
      fail_op t;
      Error (No_replica obj)
  | Some target -> (
      to_server t ~bytes:message_bytes;
      match !(t.monitor) with
      | Some m when not (Osd.is_up t.cluster_osds.(target)) ->
          let start = Engine.now t.engine in
          Engine.sleep m.op_timeout;
          Trace.emit t.engine ~layer:"ceph" ~name:"op_timeout" ~key:obj
            ~phase:Backoff ~start ~dur:m.op_timeout;
          Obs.incr m.failed_c;
          Error (No_replica obj)
      | _ ->
          Osd.read t.cluster_osds.(target) ~obj ~bytes;
          to_client t ~bytes:(bytes + message_bytes);
          Ok ())

let over_objects t ~ino ~off ~len ~io =
  let parts = Striper.objects ~object_size:t.obj_size ~ino ~off ~len in
  match parts with
  | [] -> Ok ()
  | [ (obj, bytes) ] -> io ~obj ~bytes
  | parts ->
      let first_err = ref None in
      let wg = Waitgroup.create t.engine in
      List.iter
        (fun (obj, bytes) ->
          Waitgroup.add wg;
          Engine.fork (fun () ->
              (match io ~obj ~bytes with
              | Ok () -> ()
              | Error e -> if !first_err = None then first_err := Some e);
              Waitgroup.finish wg))
        parts;
      Waitgroup.wait wg;
      (match !first_err with None -> Ok () | Some e -> Error e)

let write_range t ~ino ~off ~len =
  over_objects t ~ino ~off ~len ~io:(fun ~obj ~bytes -> write_object t ~obj ~bytes)

let read_range t ~ino ~off ~len =
  over_objects t ~ino ~off ~len ~io:(fun ~obj ~bytes -> read_object t ~obj ~bytes)

(* ------------------------------------------------------------------ *)
(* Monitor: heartbeat, mark-down, and replica re-sync on recovery. *)

(* Bring the recovered OSD [i] up to date: pull each degraded object
   from a surviving replica (real disk + CPU traffic on both ends) and
   push it onto [i]; only then does the map show the OSD up again. *)
let resync t m i =
  let objs =
    Hashtbl.fold (fun obj bytes acc -> (obj, bytes) :: acc) m.degraded.(i) []
    |> List.sort compare
  in
  List.iter
    (fun (obj, bytes) ->
      let src =
        List.find_opt
          (fun j -> j <> i && m.map_up.(j) && Osd.is_up t.cluster_osds.(j))
          (placement t obj)
      in
      match src with
      | None -> () (* no surviving replica: nothing to recover from *)
      | Some j ->
          Osd.read t.cluster_osds.(j) ~obj ~bytes;
          Osd.write t.cluster_osds.(i) ~obj ~bytes;
          Obs.add m.resync_c (float_of_int bytes))
    objs;
  note_degraded m (-(Hashtbl.length m.degraded.(i)));
  Hashtbl.reset m.degraded.(i);
  m.replaced.(i) <- false;
  m.map_up.(i) <- true;
  if m.down_at.(i) > 0.0 then
    Obs.set m.recovery_g.(i) (Engine.now t.engine -. m.down_at.(i))

(* ------------------------------------------------------------------ *)
(* Paced recovery engine (enabled with [enable_monitor ~recovery]).

   State machine per (object, OSD) pair:

     Clean --missed write while down--> Degraded --drain--> Clean
     Clean --OSD replaced (peering)---> Backfilling --drain--> Clean

   A drain moves data in [cfg.chunk]-sized transfers, each charging the
   survivor's disk, the server link (east-west, contending with client
   traffic) and the target's disk, and each paced by the recovery token
   bucket.  The osdmap shows the OSD up as soon as the drain starts:
   reads redirect around dirty objects, writes to dirty objects are
   logged instead of committed. *)

(* One peering pass for OSD [i].  A returning OSD with intact data only
   needs the writes it missed (already queued in [degraded]); a
   replaced OSD lost everything, so walk the survivors' object tables
   and queue every object CRUSH places on [i] for backfill. *)
let peer t m i =
  if m.replaced.(i) then begin
    m.replaced.(i) <- false;
    (* the missed-write log predates the wipe: superseded by backfill *)
    note_degraded m (-(Hashtbl.length m.degraded.(i)));
    Hashtbl.reset m.degraded.(i);
    Array.iteri
      (fun j osd ->
        if j <> i && Osd.is_up osd then
          Osd.iter_objects osd (fun obj bytes ->
              if
                (not (Hashtbl.mem m.backfilling.(i) obj))
                && List.mem i (placement t obj)
              then begin
                Hashtbl.replace m.backfilling.(i) obj bytes;
                Obs.incr m.backfill_c;
                note_degraded m 1
              end))
      t.cluster_osds
  end

(* A clean, actually-up replica of [obj] other than [i] to read from. *)
let repair_source t m i ~obj =
  List.find_opt
    (fun j -> j <> i && Osd.is_up t.cluster_osds.(j) && not (dirty_on m j ~obj))
    (placement t obj)

type repair_outcome = Repaired | Lost | Aborted

(* Move one object onto [i] as paced, chunked simulated work.  The
   wanted size is re-read from the repair queue every chunk, so writes
   logged while the copy is in flight extend it instead of being lost.
   [Aborted] leaves the queue entry in place for the next peering
   round. *)
let recover_object t m cfg i ~obj =
  let table =
    if Hashtbl.mem m.backfilling.(i) obj then m.backfilling.(i)
    else m.degraded.(i)
  in
  let rec copy done_ =
    let want = Option.value ~default:0 (Hashtbl.find_opt table obj) in
    if done_ >= want then Repaired
    else if (not m.active) || not (Osd.is_up t.cluster_osds.(i)) then Aborted
    else
      match repair_source t m i ~obj with
      | None ->
          (* no surviving clean replica: the bytes are gone; drop the
             entry so the drain terminates, and count the loss *)
          Obs.incr m.unrecoverable_c;
          Lost
      | Some j ->
          let chunk = Stdlib.min cfg.Recovery.chunk (want - done_) in
          Option.iter (fun p -> Recovery.pace p ~bytes:chunk) m.pacer;
          Osd.read t.cluster_osds.(j) ~obj ~bytes:chunk;
          Obs.add m.recovery_read_c (float_of_int chunk);
          (* east-west hop: recovery traffic crosses the server's own
             link and queues FIFO with the clients' data path *)
          Net.transfer t.net ~src:t.server_node ~dst:t.server_node
            ~bytes:(chunk + message_bytes);
          Osd.write t.cluster_osds.(i) ~obj ~bytes:chunk;
          Obs.add m.recovered_c (float_of_int chunk);
          copy (done_ + chunk)
  in
  match copy 0 with
  | Aborted -> false
  | (Repaired | Lost) as outcome ->
      Hashtbl.remove table obj;
      note_degraded m (-1);
      if outcome = Repaired then
        Danaus_check.Check.invariant ~obs:(Engine.obs t.engine) ~layer:"ceph"
          ~what:"repair_clean"
          ~detail:(fun () -> Printf.sprintf "%s on osd %d" obj i)
          (fun () ->
            (not (Osd.is_up t.cluster_osds.(i)))
            || (Osd.has_object t.cluster_osds.(i) ~obj
               && not (dirty_on m i ~obj)));
      true

(* Drain OSD [i]'s repair queues to empty with [cfg.streams] concurrent
   transfer streams sharing one pacer, then re-scan: writes logged while
   draining may have queued more work.  On abort (target lost again, or
   monitor shut down) the remaining entries stay queued — the rollback
   path — and the next heartbeat that sees the OSD re-starts here. *)
let rec drain t m cfg i =
  peer t m i;
  if not m.map_up.(i) then m.map_up.(i) <- true;
  let work =
    Hashtbl.fold
      (fun o b acc -> (o, b) :: acc)
      m.degraded.(i)
      (Hashtbl.fold (fun o b acc -> (o, b) :: acc) m.backfilling.(i) [])
    |> List.sort compare
    |> Array.of_list
  in
  if Array.length work = 0 then begin
    (* converged: every acting set that involves [i] is whole again *)
    Danaus_check.Check.invariant ~obs:(Engine.obs t.engine) ~layer:"ceph"
      ~what:"recovery_conservation"
      ~detail:(fun () ->
        Printf.sprintf "read %g vs written %g"
          (Obs.counter_value m.recovery_read_c)
          (Obs.counter_value m.recovered_c))
      (fun () ->
        Obs.counter_value m.recovery_read_c = Obs.counter_value m.recovered_c);
    if m.down_at.(i) > 0.0 then begin
      Obs.set m.recovery_g.(i) (Engine.now t.engine -. m.down_at.(i));
      m.down_at.(i) <- 0.0
    end
  end
  else begin
    let cursor = ref 0 in
    let aborted = ref false in
    let wg = Waitgroup.create t.engine in
    let streams = Stdlib.min cfg.Recovery.streams (Array.length work) in
    for _ = 1 to streams do
      Waitgroup.add wg;
      Engine.fork ~name:("ceph:recover:" ^ Osd.name t.cluster_osds.(i))
        (fun () ->
          let continue = ref true in
          while !continue do
            if !aborted || !cursor >= Array.length work then continue := false
            else begin
              let obj, _ = work.(!cursor) in
              incr cursor;
              if not (recover_object t m cfg i ~obj) then aborted := true
            end
          done;
          Waitgroup.finish wg)
    done;
    Waitgroup.wait wg;
    if not !aborted then drain t m cfg i
  end

(* An OSD needs a recovery pass when it was replaced, the map still
   shows it down, or repair work is queued against it. *)
let needs_recovery m i =
  m.replaced.(i)
  || (not m.map_up.(i))
  || Hashtbl.length m.degraded.(i) > 0
  || Hashtbl.length m.backfilling.(i) > 0

let enable_monitor ?(heartbeat = 1.0) ?(grace = 3.0) ?(op_timeout = 0.25)
    ?recovery t =
  match !(t.monitor) with
  | Some _ -> ()
  | None ->
      let n = Array.length t.cluster_osds in
      let obs = Engine.obs t.engine in
      let m =
        {
          active = true;
          heartbeat;
          grace;
          op_timeout;
          recovery;
          pacer = Option.map (Recovery.pacer t.engine) recovery;
          map_up = Array.make n true;
          last_seen = Array.make n (Engine.now t.engine);
          down_at = Array.make n 0.0;
          resyncing = Array.make n false;
          replaced = Array.make n false;
          degraded = Array.init n (fun _ -> Hashtbl.create 64);
          backfilling = Array.init n (fun _ -> Hashtbl.create 64);
          degraded_live = 0;
          draining = 0;
          markdown_c =
            Obs.counter obs ~layer:"ceph" ~name:"osd_mark_down" ~key:"cluster";
          failed_c =
            Obs.counter obs ~layer:"ceph" ~name:"failed_ops" ~key:"cluster";
          degraded_c =
            Obs.counter obs ~layer:"ceph" ~name:"degraded_objects" ~key:"cluster";
          resync_c =
            Obs.counter obs ~layer:"ceph" ~name:"resync_bytes" ~key:"cluster";
          recovery_g =
            Array.init n (fun i ->
                Obs.gauge obs ~layer:"ceph" ~name:"recovery_time"
                  ~key:(Osd.name t.cluster_osds.(i)));
          degraded_now_g =
            Obs.gauge obs ~layer:"ceph" ~name:"degraded_now" ~key:"cluster";
          recovery_active_g =
            Obs.gauge obs ~layer:"ceph" ~name:"recovery_active" ~key:"cluster";
          recovered_c =
            Obs.counter obs ~layer:"ceph" ~name:"recovered_bytes" ~key:"cluster";
          recovery_read_c =
            Obs.counter obs ~layer:"ceph" ~name:"recovery_read_bytes"
              ~key:"cluster";
          degraded_reads_c =
            Obs.counter obs ~layer:"ceph" ~name:"degraded_reads" ~key:"cluster";
          backfill_c =
            Obs.counter obs ~layer:"ceph" ~name:"backfill_objects"
              ~key:"cluster";
          unrecoverable_c =
            Obs.counter obs ~layer:"ceph" ~name:"unrecoverable_objects"
              ~key:"cluster";
        }
      in
      t.monitor := Some m;
      Engine.spawn t.engine ~name:"ceph:monitor" (fun () ->
          while m.active do
            Engine.sleep m.heartbeat;
            let now = Engine.now t.engine in
            Array.iteri
              (fun i osd ->
                if Osd.is_up osd then begin
                  m.last_seen.(i) <- now;
                  let wants_pass =
                    match m.recovery with
                    | None -> not m.map_up.(i)
                    | Some _ -> needs_recovery m i
                  in
                  if wants_pass && not m.resyncing.(i) then begin
                    m.resyncing.(i) <- true;
                    Engine.fork ~name:("ceph:resync:" ^ Osd.name osd)
                      (fun () ->
                        (match m.recovery with
                        | None -> resync t m i
                        | Some cfg ->
                            m.draining <- m.draining + 1;
                            Obs.set m.recovery_active_g
                              (float_of_int m.draining);
                            drain t m cfg i;
                            m.draining <- m.draining - 1;
                            Obs.set m.recovery_active_g
                              (float_of_int m.draining));
                        m.resyncing.(i) <- false)
                  end
                end
                else if m.map_up.(i) && now -. m.last_seen.(i) > m.grace
                then begin
                  m.map_up.(i) <- false;
                  m.down_at.(i) <- now;
                  Obs.incr m.markdown_c
                end)
              t.cluster_osds
          done)

let disable_monitor t =
  match !(t.monitor) with
  | None -> ()
  | Some m ->
      m.active <- false;
      t.monitor := None

let monitor_sees_up t i =
  match !(t.monitor) with
  | None -> Osd.is_up t.cluster_osds.(i)
  | Some m -> m.map_up.(i)

(* Swap OSD [i] for a blank replacement device: all stored objects are
   gone, the device itself is healthy.  The monitor flags it for a
   peering pass; until the backfill drains, reads of its objects
   redirect to the surviving replicas. *)
let replace_osd t i =
  let osd = t.cluster_osds.(i) in
  Osd.wipe osd;
  Osd.set_up osd true;
  match !(t.monitor) with
  | None -> ()
  | Some m ->
      m.replaced.(i) <- true;
      if m.map_up.(i) then begin
        m.map_up.(i) <- false;
        m.down_at.(i) <- Engine.now t.engine;
        Obs.incr m.markdown_c
      end
      else if m.down_at.(i) = 0.0 then m.down_at.(i) <- Engine.now t.engine

(* Operator override: force the osdmap to show OSD [i] up without
   waiting for the heartbeat, e.g. to start degraded serving the moment
   a replacement is racked.  If the OSD was replaced, peering runs
   first so reads know which objects are still dirty. *)
let force_mark_up t i =
  match !(t.monitor) with
  | None -> ()
  | Some m ->
      if Osd.is_up t.cluster_osds.(i) then begin
        if m.recovery <> None && m.replaced.(i) then peer t m i;
        m.map_up.(i) <- true
      end

let degraded_now t =
  match !(t.monitor) with None -> 0 | Some m -> m.degraded_live

let recovery_pacer t =
  match !(t.monitor) with None -> None | Some m -> m.pacer

let recovering t i =
  match !(t.monitor) with None -> false | Some m -> m.resyncing.(i)

let object_state t i ~obj =
  match !(t.monitor) with
  | None -> Recovery.Clean
  | Some m ->
      if Hashtbl.mem m.backfilling.(i) obj then Recovery.Backfilling
      else if Hashtbl.mem m.degraded.(i) obj then Recovery.Degraded
      else Recovery.Clean

(* Number of replicas of [obj] that are actually up with a clean copy:
   the live width of its acting set.  Converges back to [replicas] once
   recovery drains. *)
let acting_width t ~obj =
  List.length
    (List.filter
       (fun i ->
         Osd.is_up t.cluster_osds.(i)
         &&
         match !(t.monitor) with
         | Some ({ recovery = Some _; _ } as m) -> not (dirty_on m i ~obj)
         | _ -> true)
       (placement t obj))

(* Both object memos are pure in the object, so the deleted objects'
   entries go with them: the memos then hold the live objects, not every
   object the run ever touched, and a re-created object is placed the
   same way again. *)
let delete_range t ~ino ~size =
  List.iteri
    (fun index (obj, _) ->
      Array.iter (fun osd -> Osd.delete osd ~obj) t.cluster_osds;
      Hashtbl.remove t.placements obj;
      Striper.forget ~ino ~index)
    (Striper.objects ~object_size:t.obj_size ~ino ~off:0 ~len:size)

let cached_placements t = Hashtbl.length t.placements

let meta t f =
  to_server t ~bytes:message_bytes;
  let r = Mds.perform t.cluster_mds f in
  to_client t ~bytes:message_bytes;
  r

let lookup t path = meta t (fun ns -> Namespace.lookup ns path)
let create_file t path = meta t (fun ns -> Namespace.create_file ns path)
let mkdir_p t path = meta t (fun ns -> Namespace.mkdir_p ns path)
let readdir t path = meta t (fun ns -> Namespace.readdir ns path)
let unlink t path = meta t (fun ns -> Namespace.unlink ns path)
let rename t ~src ~dst = meta t (fun ns -> Namespace.rename ns ~src ~dst)
let set_size t path size = meta t (fun ns -> Namespace.set_size ns path size)
let namespace t = Mds.namespace t.cluster_mds
