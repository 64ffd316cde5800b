(** Deterministic fork-join scheduler on OCaml 5 domains, fed by a
    producer on the calling domain.

    The pool has two callers: DSE pair evaluation (one task per
    (variant, app) pair; through [Jobs], the producer builds each
    variant while earlier pairs evaluate) and the serve scheduler (one
    task per admitted request, all produced up front).  Mining, merging
    and rule synthesis run serially: on 2 cores their fan-outs measured
    slower than a serial pass, while pair evaluation gains (DESIGN.md,
    "Execution runtime").

    There is one scheduling path, {!pipeline}.  The calling domain
    produces the tasks in submission order; each task starts on a
    spawned runner (at most N-1 live) as soon as it is produced, and
    the caller joins as a runner once production ends.  A runner that
    finds nothing produced retires rather than idle: an idle domain
    costs the busy producer a stop-the-world rendezvous at every minor
    collection.  A task the producer marks [inline] runs on the
    producer instead: a domain's spawn and join (100-200 us measured)
    cost more than reading a stored pair (about 0.1 ms).  {!map} is
    that path with an identity producer and nothing inline.  With one
    runner ([--jobs 1] or a nested call) every task is produced before
    any runs.

    The observable result is identical to a serial run:

    - results come back in submission order, whatever order tasks
      finish in;
    - the exception at the lowest submission index wins, whether the
      producer or a task raised it, and it is raised only after every
      spawned domain has been joined;
    - workers inherit the submitting domain's telemetry scope, budget
      and store namespace; each task records its spans into a detached
      subtree, and the subtrees are merged under the submitter's span
      in submission order at the join, so span trees match a serial
      run's, (parent, name) keys and child order alike.

    Tasks must be independent (no task may observe another's side
    effects), and a task must not read domain-local state the producer
    writes — that is the caller's contract, checked by the CI
    determinism guard ([apex report-diff] of --jobs 1 vs --jobs N
    runs).  Nested calls from inside a task or the producer degrade to
    serial execution instead of spawning further domains: a served
    request, itself a scheduler task, evaluates its pairs serially. *)

val default_jobs : unit -> int
(** [APEX_JOBS] when set and positive, otherwise
    [Domain.recommended_domain_count ()]. *)

val jobs : unit -> int
(** Current worker count: the last [set_jobs], or [default_jobs ()]. *)

val set_jobs : int -> unit
(** Fix the worker count (the CLI's [--jobs N]).  Clamped to [1, 64].
    [set_jobs 1] forces fully serial execution. *)

val pipeline :
  ?inline:('a -> bool) ->
  produce:('x -> 'a) -> ('a -> 'b) -> 'x list -> 'b list
(** [pipeline ~produce f xs] is [List.map (fun x -> f (produce x)) xs]
    with [produce] run on the calling domain, in order, and each [f]
    started on a runner as soon as its input is produced.  Production
    stops at its first exception; the tasks produced before it still
    run.

    [inline] (default: never) marks a produced input whose task costs
    less than a runner's spawn and join, such as a read of a stored
    result.  With more than one runner the producer runs such a task
    itself, right after producing it, and spawns nothing for it; its
    result, exception and spans are delivered at its index like any
    other task's.  With one runner it changes nothing. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] with submission-order results:
    [pipeline ~produce:Fun.id]. *)
