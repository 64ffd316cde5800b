(** Proven per-node width inference: forward facts ({!Absint}) meet
    backward demanded bits ({!Demand}), every resulting narrowing
    discharged by a per-cone SMT query before it is kept.

    A node's live mask is [demanded ∧ ¬known-zero]; its width is the
    highest live bit plus one (at least 1).  The degradation ladder:
    proved (UNSAT query) → tested-only (whole-graph differential check,
    used when SMT is unavailable — the [width-smt-exhaust] fault site —
    with widths identical to the proved run) → reverted to the 16-bit
    naturals.  [infer] leaves its graph untouched (callers attach the
    result with {!Apex_dfg.Graph.with_widths}) and emits the
    [analysis.width.*] counters: [checks_run], [cones_proved],
    [cones_rejected], [tested_only], [narrowed_nodes], [bits_saved],
    [validation_failures]. *)

type t = {
  demanded : int array;  (** raw backward demand mask per node *)
  live : int array;      (** validated live mask per node *)
  widths : int array;    (** validated width per node: msb(live)+1, min 1 *)
  naturals : int array;  (** the node's full hardware width (16 or 1) *)
  proved : int;          (** narrowing queries discharged UNSAT *)
  tested_only : int;     (** narrowings kept on differential evidence only *)
  rejected : int;        (** narrowing reverts (failed or cancelled queries) *)
  validated : bool;      (** every kept narrowing proved or tested *)
  outcome : Apex_guard.Outcome.t;
}

val infer : ?vectors:int -> Apex_dfg.Graph.t -> t
(** Analyze and validate.  [vectors] (default 64) sizes the
    differential fallback.  Never raises on budget expiry — a cancelled
    inference returns the natural widths with a [Degraded] outcome. *)

val narrowed_nodes : t -> int
(** Nodes whose validated width is strictly below natural. *)

val bits_saved : t -> int
(** Total width reduction, summed over all nodes. *)

val width_of_mask : int -> int
(** Highest set bit plus one, at least 1. *)

val differential_check : ?vectors:int -> Apex_dfg.Graph.t -> int array -> bool
(** [differential_check g live] — the tested-only rung: seeded random
    vectors through the evaluator that masks each node to the [live]
    bit-mask array (NOT a width array), versus {!Apex_dfg.Interp.run}. *)
