open Danaus_kernel
open Danaus_ceph

type fd = int

type flags = {
  rd : bool;
  wr : bool;
  append : bool;
  create : bool;
  trunc : bool;
}

let flags_ro = { rd = true; wr = false; append = false; create = false; trunc = false }
let flags_wo = { rd = false; wr = true; append = false; create = true; trunc = true }

let flags_append =
  { rd = false; wr = true; append = true; create = false; trunc = false }

type error =
  | Fs of Namespace.error
  | Bad_fd
  | Read_only
  | Crashed
  | Unavailable
  | Timed_out
  | Rejected

let error_to_string = function
  | Fs e -> Namespace.error_to_string e
  | Bad_fd -> "bad file descriptor"
  | Read_only -> "read-only filesystem"
  | Crashed -> "filesystem service crashed"
  | Unavailable -> "backend unavailable"
  | Timed_out -> "request timed out"
  | Rejected -> "shed by overload protection"

(* Errors worth retrying: the fault may clear (service restart, OSD
   mark-down and failover).  [Fs] errors are definitive answers from the
   namespace and must never be retried — the union filesystem probes for
   ENOENT on purpose.  [Rejected] is deliberate shedding: retrying it
   would re-offer the load the admission controller just refused, so it
   surfaces immediately. *)
let is_transient = function
  | Crashed | Unavailable | Timed_out -> true
  | Fs _ | Bad_fd | Read_only | Rejected -> false

type ext = ..
type ext += No_ext

type t = {
  name : string;
  open_file : pool:Cgroup.t -> string -> flags -> (fd, error) result;
  close : pool:Cgroup.t -> fd -> unit;
  read : pool:Cgroup.t -> fd -> off:int -> len:int -> (int, error) result;
  write : pool:Cgroup.t -> fd -> off:int -> len:int -> (unit, error) result;
  append : pool:Cgroup.t -> fd -> len:int -> (unit, error) result;
  fsync : pool:Cgroup.t -> fd -> (unit, error) result;
  fd_size : fd -> (int, error) result;
  stat : pool:Cgroup.t -> string -> (Namespace.attr, error) result;
  mkdir_p : pool:Cgroup.t -> string -> (unit, error) result;
  readdir : pool:Cgroup.t -> string -> (string list, error) result;
  unlink : pool:Cgroup.t -> string -> (unit, error) result;
  rename : pool:Cgroup.t -> src:string -> dst:string -> (unit, error) result;
  memory_used : unit -> int;
  ext : ext;
}

let read_exact t ~pool fd ~off ~len =
  let rec go done_ =
    if done_ >= len then Ok done_
    else
      match t.read ~pool fd ~off:(off + done_) ~len:(len - done_) with
      | Error _ as e -> e
      | Ok 0 -> Ok done_
      | Ok n -> go (done_ + n)
  in
  go 0
