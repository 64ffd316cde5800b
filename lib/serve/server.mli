(** The apex serve daemon: a multi-tenant job service over a Unix
    domain socket.

    Request lifecycle (see DESIGN.md "Serving"):

    - a connection thread reads one {!Proto.request} frame, derives a
      per-request [Guard.Budget] child of the server root (so queue
      wait counts against the deadline and a server-level cancel
      reaches every request), and offers it to the {!Admission} queue —
      over capacity is an instant typed reject, never a block;
    - a scheduler thread drains admitted requests round-robin across
      tenants into batches of at most [jobs] and executes each batch on
      [Exec.Pool], which adapts the fan-out to the machine (spawned
      domains when cores allow, serial inline execution otherwise);
      every request runs under full isolation: a fresh telemetry scope,
      a tenant cache namespace, a request-local DSE memo scope and the
      request budget as ambient.  The request — not a flow phase — is
      the unit of parallelism: its own pool calls are nested in its
      scheduler task, so they run serially;
    - the response embeds the request scope's full telemetry report
      with the job results as its results section, so `apex
      trace-check` and `apex report-diff --results-only` work directly
      on what `apex submit --out` writes;
    - after each request the tenant's cache namespaces are trimmed to
      the byte quota, oldest artifacts first.

    Shutdown: {!request_stop} is async-signal-safe (an atomic flag plus
    a budget cancel); the accept loop then stops, queued requests are
    answered [cancelled] (exit code 4) without running, in-flight
    requests see the cancel at their next guard tick and degrade to
    their typed outcomes, and {!join} reaps every domain and thread. *)

type config = {
  socket_path : string;
  jobs : int;  (** scheduler batch width: requests in flight at once (>= 1) *)
  max_queue : int;  (** admission cap on queued requests (>= 1) *)
  default_deadline_s : float option;
      (** per-request deadline cap; the effective deadline is the min
          of this and the request's own [deadline_s] *)
  tenant_quota_bytes : int option;
      (** per-tenant artifact-cache byte quota, enforced after each
          request across the tenant's ["<tenant>~*"] namespaces *)
  journal_path : string option;
      (** when set, admissions are journalled through {!Journal} before
          they enter the queue, and unfinished jobs from a previous
          incarnation are replayed (re-enqueued ahead of any new
          submission) on {!start} — the crash-recovery contract in
          DESIGN.md "Durability" *)
}

type t

val start : config -> t
(** Bind and listen on [socket_path] (replacing a stale socket file),
    spawn the scheduler and accept threads, and return.  Enables the
    telemetry registry (serve.* counters land in the global scope;
    request scopes are per-request).
    @raise Invalid_argument on a nonsensical config
    @raise Unix.Unix_error when the socket cannot be bound. *)

val request_stop : ?reason:string -> t -> unit
(** Begin shutdown: stop accepting, cancel the server root budget.
    Async-signal-safe and idempotent — this is the SIGTERM/SIGINT
    handler's body. *)

val join : t -> unit
(** Wait for shutdown to complete: the accept loop to exit, the
    scheduler to drain the queue and finish, connection threads to see
    their peers close.  Closes and unlinks the socket.  Call after (or
    have another thread call) {!request_stop}. *)

val shutdown : t -> unit
(** [request_stop] then [join]. *)

val socket_path : t -> string
