(** Resource governance for the DSE flow.

    One {!Budget.t} value bundles a wall-clock deadline and a
    cooperative cancellation token.  Hot loops call the cheap {!tick};
    when the ambient budget trips, [tick] raises {!Cancelled} and the
    enclosing search returns its best-so-far answer with a typed
    {!Outcome.t} instead of aborting the run.  {!Fault} is a
    deterministic fault-injection harness exercising those degradation
    ladders. *)

(** Raised by {!tick} when the ambient budget has expired or been
    cancelled.  The payload is a human-readable reason; a phase that
    catches it records [Outcome.Deadline]. *)
exception Cancelled of string

(** Typed per-phase outcomes: what quality of answer a phase produced. *)
module Outcome : sig
  type reason =
    | Deadline  (** the ambient budget expired or was cancelled *)
    | Fuel
        (** a search's own step cap ran out (the miner's subgraph cap,
            [Clique.solve]'s node budget) *)
    | Fault of string  (** injected fault at the named site *)
    | Error of string  (** unexpected per-item failure, isolated *)

  type t =
    | Exact  (** the full search ran to completion *)
    | Degraded of reason  (** a fallback answer: valid but maybe weaker *)
    | Skipped of reason  (** no answer for this item; fleet continued *)

  val reason_to_string : reason -> string

  val to_string : t -> string
  (** ["exact"], ["degraded:<reason>"] or ["skipped:<reason>"]. *)

  val is_exact : t -> bool

  val worst : t -> t -> t
  (** Aggregation order for a fleet: [Skipped > Degraded > Exact]. *)

  val record : phase:string -> t -> unit
  (** Bump the [guard.outcome.*] telemetry counters (and the per-phase
      [guard.degraded.<phase>.<reason>] / [guard.skipped.*] breakdown
      for non-exact outcomes). *)

  val exact_counters : (string * int) list -> bool
  (** The counters a computation added record no degraded or skipped
      outcome. *)

  val circumstance : string -> bool
  (** A [guard.*] counter other than [guard.outcome.exact]: how a run
      went (retries, faults, non-exact outcomes), not what it computed. *)
end

(** Budgets: deadline + cancellation token, with child derivation for
    phases and pool workers. *)
module Budget : sig
  type t = {
    deadline : float;  (** absolute Unix time; [infinity] = none *)
    token : string option Atomic.t;  (** cancellation reason, once set *)
    parent : t option;  (** cancellation chains up; deadline pre-folded *)
  }

  val unlimited : t
  (** The default budget. Recognized physically by {!tick}, which then
      costs two loads and a branch — required for bit-identical
      no-budget runs. *)

  val v : ?deadline_s:float -> unit -> t
  (** Fresh root budget. [deadline_s] is relative seconds from now. *)

  val is_unlimited : t -> bool

  val child : ?deadline_s:float -> t -> t
  (** Derive a child: deadline is the min of the parent's and the
      child's own, and the fresh token hangs off the parent so a
      parent-level cancel reaches descendants while a child-level
      cancel stays local. *)

  val cancel : ?reason:string -> t -> unit
  (** Cooperatively cancel (first reason wins, latched). *)

  val cancelled : t -> string option
  (** The cancellation reason, checking the parent chain. *)

  val remaining_s : t -> float option
  (** Seconds until the deadline, or [None] if unlimited. *)
end

(** Bounded deterministic retry for transient failures (the serve
    client's connect), and the [EINTR] wrapper of the serve loops. *)
module Retry : sig
  type t = {
    attempts : int;  (** total tries including the first (>= 1) *)
    base_delay_s : float;  (** delay before the second try *)
    max_delay_s : float;  (** backoff cap *)
  }

  val v : ?attempts:int -> ?base_delay_s:float -> ?max_delay_s:float ->
    unit -> t
  (** @raise Invalid_argument on [attempts < 1] or a negative delay. *)

  val delay_s : t -> int -> float
  (** [delay_s t k] is the sleep after the [k]th failed attempt:
      [base * 2^(k-1)] capped at [max_delay_s] — deterministic,
      unjittered. *)

  val run :
    policy:t ->
    ?sleep:(float -> unit) ->
    label:string ->
    retryable:(exn -> bool) ->
    (unit -> 'a) ->
    'a
  (** [run ~policy ~label ~retryable f] calls [f], retrying on exceptions that
      [retryable] accepts, with the policy's backoff between attempts.
      Each retry counts [guard.retries.<label>]; when the attempts are
      exhausted the last error re-raises and counts
      [guard.retries_exhausted.<label>].  Non-retryable exceptions
      propagate immediately.  [?sleep] is for tests. *)

  val eintr : (unit -> 'a) -> 'a
  (** Re-run [f] for as long as it fails with [EINTR] — the wrapper for
      every blocking Unix call in the serve loops. *)
end

(** Deterministic fault injection at registered sites.  Every armed
    fault is a schedule of (site, nth) shots: [--inject-fault site[:nth]]
    / [APEX_FAULT=site[:nth]] arm a one-shot schedule, and
    [seed:S[:N]] ({!arm_seeded}) draws a multi-shot one for the chaos
    harness. *)
module Fault : sig
  exception Injected of string
  (** Raised by {!inject} when a shot fires; payload is the site name. *)

  val sites : (string * string) list
  (** Every registered site with a one-line description of the recovery
      its degradation ladder performs. *)

  val site_names : string list

  val arm : string -> unit
  (** [arm "site"] or [arm "site:nth"]: a one-shot schedule firing at
      the [nth] occurrence of [site] (default 1).  [arm "seed:S"] / [arm "seed:S:N"]: draw a
      deterministic [N]-shot schedule (default 3) over all registered
      sites from seed [S] (see {!arm_seeded}).  @raise Invalid_argument
      on an unknown site or a malformed count/seed. *)

  val arm_seeded : seed:int -> faults:int -> unit
  (** Draw [faults] distinct (site, nth) shots from a deterministic
      LCG keyed on [seed] and arm them all at once.  Each shot fires at
      the [nth] occurrence of its site; shots are independent (firing
      one leaves the rest armed).  Same seed and count always draw the
      same schedule — the contract the chaos harness's determinism
      check relies on. *)

  val schedule : unit -> (string * int * bool) list
  (** The armed schedule as [(site, nth, fired)] triples in draw order;
      [[]] when nothing is armed. *)

  val arm_from_env : unit -> unit
  (** Arm from [APEX_FAULT] when set and nonempty. *)

  val disarm : unit -> unit

  val fire : string -> bool
  (** [fire site] is [true] exactly when this call is the [nth]
      occurrence of [site] for an unfired shot; each shot fires once and
      counts [guard.faults_injected] and [guard.fault.<site>]. *)

  val inject : string -> unit
  (** [fire] and raise {!Injected} when it fires. *)
end

val set_root : Budget.t -> unit
(** Install the process-root budget (what fresh domains inherit) and
    make it the current domain's ambient budget.  Called once by the
    CLI after parsing [--deadline]. *)

val current : unit -> Budget.t

val with_budget : Budget.t -> (unit -> 'a) -> 'a
(** Run with the given ambient budget, restoring the previous one.
    [Exec.Pool] hands a batch's [current ()] to its runners with this. *)

val tick : unit -> unit
(** The hot-loop check.  No-op (two loads, one branch) under the
    unlimited budget with no unfired deadline shot; otherwise checks
    cancellation, reads the clock, and raises {!Cancelled} when the
    budget has tripped. *)

val expired : unit -> bool
(** Non-raising {!tick} for code that prefers a status-code
    degradation (the CDCL loop returns [Unknown] rather than unwinding
    its trail). *)

val set_phase_deadline : string -> float -> unit
(** Configure a per-phase deadline in seconds ([--phase-deadline]). *)

val clear_phase_deadlines : unit -> unit
(** Drop every configured phase deadline (test teardown). *)

val with_phase : string -> (unit -> 'a) -> 'a
(** Run a phase under the ambient budget tightened by the phase's
    configured deadline (identity when none is set). *)
