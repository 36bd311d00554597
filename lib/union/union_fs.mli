open Danaus_kernel
open Danaus_client

(** Union filesystem over stacked branches of backend clients.

    A branch is a directory subtree of some client.  The topmost branch
    may be writable; lookups walk top-down and stop at the first branch
    holding the entry or a whiteout covering it.  Writing to a
    lower-branch file copies it up to the writable branch first
    (file-granularity copy-on-write, §2.2), deletions of lower entries
    leave whiteouts.

    The union interacts with the branches through plain function calls
    (the Danaus "filesystem integration" principle); transports, if any,
    are added by wrapping the result (e.g. {!Fuse_wrap} for
    unionfs-fuse) or by the branch clients themselves (AUFS over the
    kernel client). *)

type branch = {
  client : Client_intf.t;
  prefix : string;  (** branch root inside the client's namespace *)
  writable : bool;
}

(** [create ~name ~branches ~charge ()] stacks [branches] (topmost
    first; only the first may be writable).  [charge ~pool dt] burns the
    union's own bookkeeping CPU ([cpu_per_op] per lookup step, default
    1 microsecond).

    [block_cow], when set to a block size, enables block-level
    copy-on-write (the paper's §9 extension, Slacker-style): opening a
    lower file for writing creates a sparse delta file in the upper
    branch instead of copying the whole file; reads merge upper blocks
    over the lower file.  Delta files (".cow.<name>") are hidden from
    [readdir]. *)
val create :
  name:string ->
  branches:branch list ->
  charge:(pool:Cgroup.t -> float -> unit) ->
  ?cpu_per_op:float ->
  ?block_cow:int ->
  unit ->
  Client_intf.t

(** Number of copy-up operations performed through this union instance
    (for tests and ablations); 0 for an instance that is not a union.
    Unions sharing a name keep separate counts. *)
val copy_ups : Client_intf.t -> int

(** Number of copy-ups that failed mid-copy and were rolled back: the
    partial upper copy is unlinked so the intact lower file stays
    visible instead of a truncated shadow. *)
val copy_up_rollbacks : Client_intf.t -> int

(** Whiteout consistency check: union paths whose upper-branch whiteout
    hides no entry in any lower branch (orphans), sorted.  An empty list
    means every whiteout is justified. *)
val check_whiteouts : Client_intf.t -> pool:Cgroup.t -> string list
