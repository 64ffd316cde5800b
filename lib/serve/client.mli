(** Client side of the serve protocol: what `apex submit`, the serve
    bench and the tests use to talk to a daemon. *)

type t
(** One connection; requests on it are synchronous (send, wait). *)

val connect : string -> t
(** Connect to the daemon's socket with bounded deterministic
    exponential backoff (50 ms doubling to a 2 s cap, 12 tries in
    total — about 19 s of patience) while the socket is
    missing or refusing, which covers a daemon still starting up.
    Anything other than [ENOENT]/[ECONNREFUSED] — permissions, a
    non-socket path — fails fast instead of retrying.
    @raise Sys_error when the daemon never comes up. *)

val request : t -> Proto.request -> Proto.response
(** Send one request frame and block for its response.
    @raise Sys_error on a broken connection,
    [Invalid_argument] on a malformed response. *)

val close : t -> unit
