let default_object_size = 4 * 1024 * 1024

(* Object names recur on every IO touching the same stripe unit, so the
   rendered string is interned per domain (domain-local because the
   parallel experiment runner computes placements concurrently; inode
   numbers and stripe indexes fit comfortably in the packed key).  The
   table outlives every testbed, so deleted objects are dropped from it
   ({!forget}): it holds the live objects, not every object ever
   touched.  A later lookup renders the same string again. *)
let names_key : (int, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4096)

let[@inline] key ~ino ~index = (ino lsl 31) lor index

let name ~ino ~index =
  let names = Domain.DLS.get names_key in
  let key = key ~ino ~index in
  match Hashtbl.find names key with
  | s -> s
  | exception Not_found ->
      let s = Printf.sprintf "%x.%08x" ino index in
      Hashtbl.add names key s;
      s

let forget ~ino ~index = Hashtbl.remove (Domain.DLS.get names_key) (key ~ino ~index)
let interned () = Hashtbl.length (Domain.DLS.get names_key)

let objects ~object_size ~ino ~off ~len =
  Danaus_check.Check.precondition ~layer:"striper" ~what:"objects_args"
    ~detail:(fun () ->
      Printf.sprintf "object_size %d, off %d (ino %x)" object_size off ino)
    (object_size > 0 && off >= 0);
  if len <= 0 then []
  else begin
    let first = off / object_size and last = (off + len - 1) / object_size in
    List.init
      (last - first + 1)
      (fun i ->
        let index = first + i in
        let obj_start = index * object_size in
        let obj_end = obj_start + object_size in
        let lo = Stdlib.max off obj_start and hi = Stdlib.min (off + len) obj_end in
        (name ~ino ~index, hi - lo))
  end

let object_of ~object_size ~ino ~off = name ~ino ~index:(off / object_size)
