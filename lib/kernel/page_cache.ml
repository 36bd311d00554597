open Danaus_sim
open Danaus_hw

type mount = {
  m_name : string;
  max_dirty : int;
  m_limit : int; (* cgroup memory limit covering this mount's cache *)
  mutable m_used : int;
  mutable m_dirty : int;
  (* Conservation accumulators, deliberately plain ints rather than Obs
     cells: [Obs.reset] between warm-up and measured phases clears the
     cells but must not break the law below. *)
  mutable m_dirtied_total : int; (* every byte that ever became dirty *)
  mutable m_wb_total : int; (* every byte retired by writeback/discard *)
  throttled : (unit -> unit) Queue.t;
  mutable m_files : file list;
  (* dropped files still listed in [m_files], pruned by [take_dirty] *)
  mutable m_dropped : int;
  mutable m_clean : int;
      (* present blocks that are not dirty, over every file ever opened
         on the mount (listed or dropped) *)
  dirty_g : Obs.gauge;
  dirty_peak_g : Obs.gauge;
  wb_c : Obs.counter;
}

(* Dirty blocks of one file, in first-dirtied order: a growable circular
   buffer of (block, dirtied-at) pairs in parallel arrays.  The engine
   clock is monotonic and re-dirtying an already-dirty block keeps its
   original timestamp (it is simply not re-appended), so the ring is
   sorted by dirtied-at by construction — the flusher's oldest-first
   selection pops from the front in O(selected) instead of folding the
   whole dirty table and sorting it on every 4 MB chunk.  [f.dirty]
   remains the membership set; ring and table always hold the same
   blocks ([check_invariants] states that law).  Most files never hold
   more than a few dirty blocks at once, so the ring starts empty and
   grows geometrically on the first push. *)
and dirty_ring = {
  mutable r_blocks : int array;
  mutable r_at : float array;
  mutable r_head : int; (* index of the oldest entry *)
  mutable r_len : int;
}

and file = {
  key : string;
  mnt : mount;
  cache : t;
  present : (int, unit) Hashtbl.t;
  (* block -> dirtied-at.  The ring mirrors this table in age order; the
     table itself is kept because the flusher's legacy tie-break (see
     {!select_blocks}) is the fold order of exactly this table. *)
  dirty : (int, float) Hashtbl.t;
  dring : dirty_ring;
  mutable last_access : float;
  flush : bytes:int -> unit;
  mutable life : life;
}

(* [Forgotten]: its owner evicted the inode, but blocks are still cached
   (they keep their accounting and eviction order); the file is
   [Dropped] from the cache's tables once it holds no block. *)
and life = Live | Forgotten | Dropped

and t = {
  engine : Engine.t;
  mem : Memory.t;
  limit : int;
  block : int;
  mutable all_mounts : mount list;
  files_by_key : (string, file) Hashtbl.t;
  mutable grand_dirty : int;
  mutable clean : int; (* sum of the mounts' [m_clean] *)
  (* a forgotten file was invalidated: it may sit with no block and
     undropped until an eviction pass reaches it (see {!evictable}) *)
  mutable stray_forgotten : bool;
}

let ring_create () = { r_blocks = [||]; r_at = [||]; r_head = 0; r_len = 0 }

let ring_grow r =
  let cap = Array.length r.r_blocks in
  let cap' = if cap = 0 then 8 else cap * 2 in
  let blocks = Array.make cap' 0 and at = Array.make cap' 0.0 in
  (* unroll the circle while copying *)
  for i = 0 to r.r_len - 1 do
    let j = (r.r_head + i) mod cap in
    blocks.(i) <- r.r_blocks.(j);
    at.(i) <- r.r_at.(j)
  done;
  r.r_blocks <- blocks;
  r.r_at <- at;
  r.r_head <- 0

let[@inline] ring_push r b at =
  if r.r_len = Array.length r.r_blocks then ring_grow r;
  let tail = (r.r_head + r.r_len) mod Array.length r.r_blocks in
  r.r_blocks.(tail) <- b;
  r.r_at.(tail) <- at;
  r.r_len <- r.r_len + 1

let create engine ~mem ~limit ~block =
  Invariant.precondition ~layer:"page_cache" ~what:"create_args"
    ~detail:(fun () -> Printf.sprintf "limit %d, block %d" limit block)
    (limit > 0 && block > 0);
  {
    engine;
    mem;
    limit;
    block;
    all_mounts = [];
    files_by_key = Hashtbl.create 1024;
    grand_dirty = 0;
    clean = 0;
    stray_forgotten = false;
  }

let add_mount t ~name ~max_dirty ?mem_limit () =
  Invariant.precondition ~layer:"page_cache" ~what:"mount_max_dirty"
    ~detail:(fun () -> Printf.sprintf "%s: max_dirty %d" name max_dirty)
    (max_dirty > 0);
  let obs = Engine.obs t.engine in
  let m =
    {
      m_name = name;
      max_dirty;
      m_limit = Option.value ~default:max_int mem_limit;
      m_used = 0;
      m_dirty = 0;
      m_dirtied_total = 0;
      m_wb_total = 0;
      throttled = Queue.create ();
      m_files = [];
      m_dropped = 0;
      m_clean = 0;
      dirty_g = Obs.gauge obs ~layer:"kernel" ~name:"dirty_bytes" ~key:name;
      dirty_peak_g =
        Obs.gauge obs ~layer:"kernel" ~name:"dirty_bytes_peak" ~key:name;
      wb_c = Obs.counter obs ~layer:"kernel" ~name:"wb_bytes" ~key:name;
    }
  in
  t.all_mounts <- m :: t.all_mounts;
  m

let note_dirty m =
  let d = float_of_int m.m_dirty in
  Obs.set m.dirty_g d;
  Obs.set_max m.dirty_peak_g d

let mount_name m = m.m_name
let background_threshold m = m.max_dirty / 2

let[@inline] add_clean f n =
  f.mnt.m_clean <- f.mnt.m_clean + n;
  f.cache.clean <- f.cache.clean + n

let drop_if_empty f =
  if f.life = Forgotten && Hashtbl.length f.present = 0 then begin
    (* dirty blocks are always present, so no block is left at all *)
    f.life <- Dropped;
    Hashtbl.remove f.cache.files_by_key f.key;
    f.mnt.m_dropped <- f.mnt.m_dropped + 1
  end

let forget f =
  if f.life = Live then begin
    f.life <- Forgotten;
    drop_if_empty f
  end

(* Eviction candidates of [f]: its present blocks that are not dirty,
   in the present table's fold order. *)
let clean_blocks f =
  Hashtbl.fold
    (fun b () acc -> if Hashtbl.mem f.dirty b then acc else b :: acc)
    f.present []

(* The files an eviction pass can change: those with a clean block
   (dirty blocks are always present, so the table sizes tell), and
   forgotten files left with no block (the pass drops them).  A cache
   over its limit is mostly dirty files, so the passes below sort only
   these — stable sorting commutes with filtering, so the visiting order
   is the one a sort of every file would give. *)
let evictable f =
  let n = Hashtbl.length f.present in
  n > Hashtbl.length f.dirty || (f.life = Forgotten && n = 0)

let lru_order files =
  List.filter evictable files
  |> List.sort (fun a b -> Float.compare a.last_access b.last_access)

(* Whether an eviction pass over files holding [clean] clean blocks can
   change anything: with no clean block and no stray forgotten file,
   every file fails {!evictable} and the pass would visit none. *)
let[@inline] can_evict t clean = clean > 0 || t.stray_forgotten

(* Evict clean blocks, least-recently-accessed files first, once the
   cache exceeds its limit.  Eviction proceeds down to 90% of the limit
   (hysteresis) so that the scan is amortised over many inserts.  Dirty
   blocks are never dropped. *)
let evict_if_needed t =
  if Memory.used t.mem > t.limit && can_evict t t.clean then begin
    let files =
      lru_order (Hashtbl.fold (fun _ f acc -> f :: acc) t.files_by_key [])
    in
    let target = t.limit / 10 * 9 in
    let excess = ref (Memory.used t.mem - target) in
    List.iter
      (fun f ->
        if !excess > 0 then begin
          let victims = clean_blocks f in
          List.iter
            (fun b ->
              if !excess > 0 then begin
                Hashtbl.remove f.present b;
                add_clean f (-1);
                f.mnt.m_used <- f.mnt.m_used - t.block;
                Memory.free t.mem t.block;
                excess := !excess - t.block
              end)
            victims;
          drop_if_empty f
        end)
      files
  end

let file t mnt ~key ~flush =
  match Hashtbl.find t.files_by_key key with
  | f ->
      (* a forgotten file still caching blocks is live again *)
      f.life <- Live;
      f
  | exception Not_found ->
      let f =
        {
          key;
          mnt;
          cache = t;
          present = Hashtbl.create 16;
          dirty = Hashtbl.create 16;
          dring = ring_create ();
          last_access = Engine.now t.engine;
          flush;
          life = Live;
        }
      in
      Hashtbl.add t.files_by_key key f;
      mnt.m_files <- f :: mnt.m_files;
      f

let missing f ~off ~len =
  f.last_access <- Engine.now f.cache.engine;
  if len <= 0 then 0
  else begin
    let t = f.cache in
    let first = off / t.block and last = (off + len - 1) / t.block in
    let acc = ref 0 in
    for b = first to last do
      if not (Hashtbl.mem f.present b) then acc := !acc + t.block
    done;
    !acc
  end

(* Per-mount (cgroup v2 memory) eviction: drop clean LRU blocks of the
   mount once its cached bytes exceed the pool's memory limit. *)
let evict_mount_if_needed t m =
  if m.m_used > m.m_limit && can_evict t m.m_clean then begin
    let files = lru_order m.m_files in
    let target = m.m_limit / 10 * 9 in
    let excess = ref (m.m_used - target) in
    List.iter
      (fun f ->
        if !excess > 0 then begin
          let victims = clean_blocks f in
          List.iter
            (fun b ->
              if !excess > 0 then begin
                Hashtbl.remove f.present b;
                add_clean f (-1);
                Memory.free t.mem t.block;
                m.m_used <- m.m_used - t.block;
                excess := !excess - t.block
              end)
            victims;
          drop_if_empty f
        end)
      files
  end

let insert_clean f ~off ~len =
  let t = f.cache in
  f.last_access <- Engine.now t.engine;
  if len > 0 then begin
    let first = off / t.block and last = (off + len - 1) / t.block in
    for b = first to last do
      if not (Hashtbl.mem f.present b) then begin
        Hashtbl.add f.present b ();
        add_clean f 1;
        f.mnt.m_used <- f.mnt.m_used + t.block;
        Memory.alloc t.mem t.block
      end
    done
  end;
  evict_mount_if_needed t f.mnt;
  evict_if_needed t

let write f ~off ~len =
  let t = f.cache in
  let now = Engine.now t.engine in
  f.last_access <- now;
  if len > 0 then begin
    let first = off / t.block and last = (off + len - 1) / t.block in
    for b = first to last do
      let was_present = Hashtbl.mem f.present b in
      if not was_present then begin
        Hashtbl.add f.present b ();
        f.mnt.m_used <- f.mnt.m_used + t.block;
        Memory.alloc t.mem t.block
      end;
      if not (Hashtbl.mem f.dirty b) then begin
        (* a cached clean block turns dirty *)
        if was_present then add_clean f (-1);
        Hashtbl.add f.dirty b now;
        ring_push f.dring b now;
        f.mnt.m_dirty <- f.mnt.m_dirty + t.block;
        f.mnt.m_dirtied_total <- f.mnt.m_dirtied_total + t.block;
        t.grand_dirty <- t.grand_dirty + t.block
      end
    done
  end;
  note_dirty f.mnt;
  evict_mount_if_needed t f.mnt;
  evict_if_needed t

let dirty_bytes_of f = Hashtbl.length f.dirty * f.cache.block

let invalidate f =
  let t = f.cache in
  if Hashtbl.length f.dirty > 0 then
    invalid_arg ("Page_cache.invalidate: dirty file " ^ f.key);
  let bytes = Hashtbl.length f.present * t.block in
  Memory.free t.mem bytes;
  f.mnt.m_used <- f.mnt.m_used - bytes;
  add_clean f (-Hashtbl.length f.present);
  if f.life = Forgotten then t.stray_forgotten <- true;
  Hashtbl.reset f.present

(* Writers over the dirty limit sleep and are released one at a time:
   each writeback completion wakes one, and a writer that gets through
   pulls the next along (chained wakeup).  Batch wakeups would create
   synchronized dirty/sleep cycles with long idle windows — Linux paces
   each dirtier individually. *)
let wake_one m =
  if not (Queue.is_empty m.throttled) then (Queue.pop m.throttled) ()

let throttle_mount (_ : t) m =
  while m.m_dirty > m.max_dirty do
    Engine.suspend (fun wake -> Queue.add wake m.throttled)
  done;
  if m.m_dirty <= m.max_dirty then wake_one m

let throttle f = throttle_mount f.cache f.mnt

let wake_throttled m = if m.m_dirty <= m.max_dirty then wake_one m

(* Move dirty blocks of [f] into the under-writeback state, oldest
   first: they leave the file's dirty set (so they are not selected
   twice) but keep counting against the mount's dirty total until
   {!writeback_complete} — Linux's balance_dirty_pages throttles on
   dirty + writeback together, which is what closes the feedback loop
   between writers and the (possibly starved) flusher threads.

   The ring is sorted by dirtied-at (see {!dirty_ring}), so "oldest
   blocks not newer than [older_than], up to [budget]" is a pop off the
   front — no per-call fold over the dirty table, no sort.  One
   subtlety keeps the result bit-identical to the historical
   fold-and-stable-sort implementation: when the budget cuts through a
   group of blocks dirtied at the same instant (one multi-block write
   call), the old code took the group's members in the dirty table's
   fold order, not first-dirtied order.  Which members are left dirty
   feeds back into later flush timing, so the golden tables see the
   difference.  The fast path below (whole groups, the overwhelmingly
   common case — and always the case for full flushes) never touches
   the table beyond removals; only a split group replays the legacy
   fold order for that one group. *)
let select_blocks f ~older_than ~budget =
  let r = f.dring in
  let block = f.cache.block in
  if budget <= 0 || r.r_len = 0 then 0
  else begin
    let cap = Array.length r.r_blocks in
    (* eligible entries form a prefix of the age-sorted ring *)
    let avail = ref 0 in
    while
      !avail < r.r_len && r.r_at.((r.r_head + !avail) mod cap) <= older_than
    do
      incr avail
    done;
    let avail = !avail in
    if avail = 0 then 0
    else begin
      let want =
        if budget / block >= avail then avail else (budget + block - 1) / block
      in
      let k = if want < avail then want else avail in
      if
        k = avail
        || r.r_at.((r.r_head + k - 1) mod cap) < r.r_at.((r.r_head + k) mod cap)
      then begin
        (* the cut falls on a dirtied-at group boundary *)
        for i = 0 to k - 1 do
          Hashtbl.remove f.dirty r.r_blocks.((r.r_head + i) mod cap)
        done;
        r.r_head <- (r.r_head + k) mod cap;
        r.r_len <- r.r_len - k;
        (* taken blocks stay cached, now clean *)
        add_clean f k;
        k * block
      end
      else begin
        (* the budget splits a same-instant group: older groups drain
           wholesale, then the split group's members are taken in the
           table's fold order (what the stable sort preserved) *)
        let t_cut = r.r_at.((r.r_head + k - 1) mod cap) in
        let before = ref 0 in
        while r.r_at.((r.r_head + !before) mod cap) < t_cut do
          incr before
        done;
        let before = !before in
        for i = 0 to before - 1 do
          Hashtbl.remove f.dirty r.r_blocks.((r.r_head + i) mod cap)
        done;
        let group =
          Hashtbl.fold
            (fun b at acc -> if at = t_cut then b :: acc else acc)
            f.dirty []
        in
        let rest = ref (k - before) in
        List.iter
          (fun b ->
            if !rest > 0 then begin
              Hashtbl.remove f.dirty b;
              decr rest
            end)
          group;
        (* compact the ring down to the still-dirty blocks, in order *)
        let w = ref 0 in
        for i = 0 to r.r_len - 1 do
          let j = (r.r_head + i) mod cap in
          if Hashtbl.mem f.dirty r.r_blocks.(j) then begin
            let d = (r.r_head + !w) mod cap in
            r.r_blocks.(d) <- r.r_blocks.(j);
            r.r_at.(d) <- r.r_at.(j);
            incr w
          end
        done;
        r.r_len <- !w;
        add_clean f k;
        k * block
      end
    end
  end

let take_dirty (_ : t) m ~older_than ~max_bytes =
  (* dropped files hold no dirty block, so pruning them here changes no
     selection; it only keeps the list from growing with churn *)
  if m.m_dropped > 0 then begin
    m.m_files <- List.filter (fun f -> f.life <> Dropped) m.m_files;
    m.m_dropped <- 0
  end;
  let budget = ref max_bytes in
  let out = ref [] in
  List.iter
    (fun f ->
      if !budget > 0 && Hashtbl.length f.dirty > 0 then begin
        let got = select_blocks f ~older_than ~budget:!budget in
        if got > 0 then begin
          budget := !budget - got;
          out := (f, got) :: !out
        end
      end)
    m.m_files;
  !out

let flush_file f =
  let got = select_blocks f ~older_than:infinity ~budget:max_int in
  if got > 0 then [ (f, got) ] else []

(* The page cache's conservation law: every byte that ever became dirty
   was either retired by writeback (or an explicit discard) or is still
   dirty right now.  Holds per mount at every quiescent point. *)
let conservation_ok m = m.m_dirtied_total = m.m_wb_total + m.m_dirty

let files_clean m =
  List.fold_left
    (fun a f -> a + Hashtbl.length f.present - Hashtbl.length f.dirty)
    0 m.m_files

let check_mount t m =
  let obs = Engine.obs t.engine in
  Invariant.require ~obs ~layer:"page_cache" ~what:"dirty_conservation"
    ~detail:(fun () ->
      Printf.sprintf "%s: dirtied %d <> wb %d + dirty %d" m.m_name
        m.m_dirtied_total m.m_wb_total m.m_dirty)
    (conservation_ok m);
  Invariant.require ~obs ~layer:"page_cache" ~what:"dirty_non_negative"
    ~detail:(fun () -> Printf.sprintf "%s: dirty %d" m.m_name m.m_dirty)
    (m.m_dirty >= 0);
  Invariant.require ~obs ~layer:"page_cache" ~what:"used_non_negative"
    ~detail:(fun () -> Printf.sprintf "%s: used %d" m.m_name m.m_used)
    (m.m_used >= 0);
  Invariant.require ~obs ~layer:"page_cache" ~what:"wb_within_dirtied"
    ~detail:(fun () ->
      Printf.sprintf "%s: wrote back %d of %d ever dirtied" m.m_name
        m.m_wb_total m.m_dirtied_total)
    (m.m_wb_total <= m.m_dirtied_total);
  (* the count covers every file ever opened on the mount, dropped
     ones too, so it may exceed what the listed files hold; it must
     never fall short, or an eviction pass with work to do would be
     skipped *)
  Invariant.invariant ~obs ~layer:"page_cache" ~what:"clean_count"
    ~detail:(fun () ->
      Printf.sprintf "%s: counted %d clean block(s), listed files hold %d"
        m.m_name m.m_clean (files_clean m))
    (fun () -> m.m_clean >= files_clean m);
  (* ring/table synchronisation: the ordered ring and the membership
     table always describe the same dirty set, and the ring is sorted
     by dirtied-at (monotonic clock + no re-append on re-dirty) *)
  List.iter
    (fun f ->
      Invariant.require ~obs ~layer:"page_cache" ~what:"dirty_ring_sync"
        ~detail:(fun () ->
          Printf.sprintf "%s/%s: ring holds %d block(s), table %d" m.m_name
            f.key f.dring.r_len (Hashtbl.length f.dirty))
        (f.dring.r_len = Hashtbl.length f.dirty);
      Invariant.invariant ~obs ~layer:"page_cache" ~what:"dirty_ring_sorted"
        ~detail:(fun () -> Printf.sprintf "%s/%s: ring out of age order" m.m_name f.key)
        (fun () ->
          let r = f.dring in
          let cap = Array.length r.r_blocks in
          let ok = ref true in
          for i = 0 to r.r_len - 2 do
            if
              r.r_at.((r.r_head + i) mod cap)
              > r.r_at.((r.r_head + i + 1) mod cap)
            then ok := false
          done;
          !ok))
    m.m_files

let check_invariants t =
  List.iter (check_mount t) t.all_mounts;
  let obs = Engine.obs t.engine in
  Invariant.invariant ~obs ~layer:"page_cache" ~what:"occupancy_sum"
    ~detail:(fun () ->
      let sum = List.fold_left (fun a m -> a + m.m_used) 0 t.all_mounts in
      Printf.sprintf "mounts sum to %d, memory pool holds %d" sum
        (Memory.used t.mem))
    (fun () ->
      List.fold_left (fun a m -> a + m.m_used) 0 t.all_mounts
      = Memory.used t.mem);
  Invariant.invariant ~obs ~layer:"page_cache" ~what:"grand_clean_sum"
    ~detail:(fun () ->
      let sum = List.fold_left (fun a m -> a + m.m_clean) 0 t.all_mounts in
      Printf.sprintf "mounts sum to %d clean block(s), cache says %d" sum
        t.clean)
    (fun () ->
      List.fold_left (fun a m -> a + m.m_clean) 0 t.all_mounts = t.clean);
  Invariant.invariant ~obs ~layer:"page_cache" ~what:"grand_dirty_sum"
    ~detail:(fun () ->
      let sum = List.fold_left (fun a m -> a + m.m_dirty) 0 t.all_mounts in
      Printf.sprintf "mounts sum to %d dirty, cache says %d" sum t.grand_dirty)
    (fun () ->
      List.fold_left (fun a m -> a + m.m_dirty) 0 t.all_mounts = t.grand_dirty)

let writeback_complete t m ~bytes =
  if bytes < 0 then
    Invariant.fail ~layer:"page_cache" ~what:"writeback_bytes"
      (Printf.sprintf "%s: %d bytes" m.m_name bytes);
  m.m_dirty <- m.m_dirty - bytes;
  m.m_wb_total <- m.m_wb_total + bytes;
  t.grand_dirty <- t.grand_dirty - bytes;
  if m.m_dirty < 0 || t.grand_dirty < 0 then
    Invariant.fail ~layer:"page_cache" ~what:"dirty_underflow"
      (Printf.sprintf "%s: dirty %d, grand %d after retiring %d" m.m_name
         m.m_dirty t.grand_dirty bytes);
  if Invariant.on () then
    Invariant.require ~obs:(Engine.obs t.engine) ~layer:"page_cache"
      ~what:"dirty_conservation"
      ~detail:(fun () ->
        Printf.sprintf "%s: dirtied %d <> wb %d + dirty %d" m.m_name
          m.m_dirtied_total m.m_wb_total m.m_dirty)
      (conservation_ok m);
  Obs.set m.dirty_g (float_of_int m.m_dirty);
  Obs.add m.wb_c (float_of_int bytes);
  wake_throttled m;
  evict_if_needed t

(* Throw away dirty data without writing it back (truncate/unlink). *)
let discard_dirty f =
  let got = select_blocks f ~older_than:infinity ~budget:max_int in
  writeback_complete f.cache f.mnt ~bytes:got

let mount_of f = f.mnt
let mount_used m = m.m_used
let dirtied_total m = m.m_dirtied_total
let wb_total m = m.m_wb_total
let run_flush f ~bytes = f.flush ~bytes
let dirty_bytes (_ : t) m = m.m_dirty
let total_dirty t = t.grand_dirty
let mounts t = t.all_mounts
let used_bytes t = Memory.used t.mem

let oldest_dirty (_ : t) m =
  (* the ring front is each file's oldest dirty block *)
  List.fold_left
    (fun acc f ->
      if f.dring.r_len = 0 then acc
      else
        let at = f.dring.r_at.(f.dring.r_head) in
        match acc with
        | None -> Some at
        | Some best -> if at < best then Some at else acc)
    None m.m_files
