(** File-to-object striping: a file's byte range maps to fixed-size
    RADOS-style objects named [<ino>.<index>]. *)

(** Default Ceph object size (4 MiB). *)
val default_object_size : int

(** [objects ~object_size ~ino ~off ~len] lists the [(object_name,
    bytes_in_object)] pairs covering the byte range; empty for
    [len <= 0]. *)
val objects :
  object_size:int -> ino:int -> off:int -> len:int -> (string * int) list

(** Name of the object holding byte [off] of inode [ino]. *)
val object_of : object_size:int -> ino:int -> off:int -> string

(** [forget ~ino ~index] drops the calling domain's interned name of
    object [index] of inode [ino], once the object is deleted.  Naming
    it again renders an equal string. *)
val forget : ino:int -> index:int -> unit

(** Number of object names the calling domain holds interned. *)
val interned : unit -> int
