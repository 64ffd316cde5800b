(** Validated optimization pipeline over the {!Absint} fact base.

    Constant folding, algebraic identities, structural CSE and
    dead-node elimination, iterated to a fixpoint.  I/O nodes are never
    removed, so the optimized graph keeps the application's
    input/output contract (dead inputs stay as dangling markers).

    Every fold/identity rewrite is discharged by a local 16-bit SMT
    query before being applied (arguments constrained by their abstract
    facts; "old ≠ new" must be UNSAT), and the final graph is checked
    against {!Apex_dfg.Interp} on random vectors.  A failed check
    abandons the rewrite (resp. returns the original graph) instead of
    trusting it. *)

type repl = Fold of int | Arg of int

type stats = {
  before_nodes : int;
  after_nodes : int;
  const_folds : int;
  identities : int;
  cse_merged : int;
  dce_removed : int;
  cones_proved : int;
  cones_rejected : int;
  iterations : int;
}

type result = {
  graph : Apex_dfg.Graph.t;
  stats : stats;
  validated : bool;
}

val constrain_fact :
  Apex_smt.Bv.ctx -> Apex_smt.Bv.bv -> Absint.fact -> int -> unit
(** Constrain a fresh bit-vector of the given width by an abstract
    fact: known bits as unit clauses, a non-full interval as an
    unsigned-range side condition.  Shared with {!Width} so every SMT
    discharge reads the fact base identically. *)

val equiv_check : ?vectors:int -> Apex_dfg.Graph.t -> Apex_dfg.Graph.t -> bool
(** Differential interpreter equivalence on seeded random vectors (the
    second graph's inputs must be a subset of the first's). *)

val run : ?vectors:int -> Apex_dfg.Graph.t -> result
(** Optimize a graph: every rewrite is SMT-checked, then the result is
    checked on [vectors] (default 64) random interpreter vectors.
    Emits [analysis.*] telemetry counters. *)
