(** Deterministic fork-join scheduler on OCaml 5 domains.

    The pool has two callers: DSE pair evaluation (one task per
    (variant, app) pair) and the serve scheduler (one task per admitted
    request).  Mining, merging and rule synthesis run serially: on 2
    cores their fan-outs measured slower than a serial pass, while pair
    evaluation gains (DESIGN.md, "Execution runtime").
    The pool runs its tasks across a fixed number of domains while
    keeping the *observable result identical to a serial run*:

    - [map f xs] always delivers results in submission order, whatever
      order tasks finish in;
    - a task's exception is re-raised for the lowest submission index
      that failed, mirroring which element a serial [List.map] would
      have raised on;
    - workers inherit the submitting domain's telemetry span context,
      so span trees aggregate under the same (parent, name) keys as a
      serial run.

    Tasks must be independent (no task may observe another's side
    effects) — that is the caller's contract, checked by the CI
    determinism guard ([apex report-diff] of --jobs 1 vs --jobs 4
    runs).  Nested calls from inside a task degrade to serial
    execution instead of spawning further domains. *)

val default_jobs : unit -> int
(** [APEX_JOBS] when set and positive, otherwise
    [Domain.recommended_domain_count ()]. *)

val jobs : unit -> int
(** Current worker count: the last [set_jobs], or [default_jobs ()]. *)

val set_jobs : int -> unit
(** Fix the worker count (the CLI's [--jobs N]).  Clamped to [1, 64].
    [set_jobs 1] forces fully serial execution. *)

val serially : (unit -> 'a) -> 'a
(** [serially f] runs [f] with every pool map inside it executing
    serially on the calling domain, as if [f] were a pool task.  By the
    pool's contract this cannot change any result — only where the work
    runs.  Used by callers that manage their own domains (one serve
    worker per request) to stop per-phase fan-out from oversubscribing
    the machine. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with submission-order results. *)
