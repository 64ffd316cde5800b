(** Write-ahead job journal for crash-only [apex serve].

    Append-only file of length-prefixed, MD5-checksummed JSON records
    ([Admitted]/[Started]/[Done]/[Cancelled]).  Admissions are fsynced
    to the journal {e before} the job enters the in-memory queue, so a
    [kill -9] at any point loses no accepted job: on restart, {!open_}
    replays the file, truncates any torn tail, and returns the
    admitted-but-unfinished jobs for automatic re-enqueue.  Only
    admissions are fsynced: the other records are written, so a killed
    process keeps them, but a host crash may lose them, and the job
    then replays as a started-but-not-done one would.  The file is
    compacted (rewritten to exactly the live set) on open and every
    [compact_every] appends.

    Telemetry: [serve.journal_appends], [serve.journal_replayed],
    [serve.journal_truncated_bytes], [serve.journal_compactions]. *)

type t

type entry = { jid : int; req : Proto.request }

val open_ : string -> t * entry list
(** Open (creating if absent) and replay the journal at the given
    path.  Returns the journal handle plus the unfinished jobs in
    admission (jid) order.  @raise Sys_error when the file exists but
    is not an apex journal (bad magic). *)

val admit : t -> Proto.request -> int
(** Durably record an admission and return its fresh job id.  Returns
    only after the record is fsynced — call {e before} enqueueing. *)

val started : t -> int -> unit
(** The job left the queue and began executing.  Purely informational
    for replay (a started-but-not-done job is still unfinished), kept
    for post-mortem forensics of what was in flight at a crash.
    Written, not fsynced. *)

val finished : t -> int -> unit
(** The job reached a terminal non-cancelled response (ok {e or} a
    deterministic error — neither should re-run on restart).  Written,
    not fsynced: a [kill -9] keeps it, a host crash may lose it and
    replay the job. *)

val cancelled : t -> int -> unit
(** The job was cancelled (shutdown, queue overflow, expired while
    queued) — it will not be replayed.  Written, not fsynced, like
    {!finished}. *)

val close : t -> unit
(** fsync what the unsynced appends wrote, then close. *)

val path : t -> string
