(** Formal verification of rewrite rules (Section 4.1.1).

    A rewrite rule claims that a PE datapath under a fixed configuration
    implements a computational pattern for every input.  The paper
    discharges this with Boolector; we discharge it with our own SAT
    core: random 16-bit testing first (cheap refutation), then a SAT
    equivalence check at a reduced bit width.  A reduced-width
    counterexample is replayed at 16 bits to tell real refutations from
    width artifacts (e.g. sign-bit position effects). *)

type verdict =
  | Proved of int
      (** SAT-verified exhaustively at this bit width (plus 16-bit
          random testing) *)
  | Tested
      (** survived 16-bit random testing; SAT either exceeded its budget
          or produced only width-artifact counterexamples *)
  | Refuted of (int * int) list
      (** a 16-bit counterexample: pattern-input node id -> value *)

val verify_config :
  ?width:int ->
  ?conflict_budget:int ->
  Apex_merging.Datapath.t ->
  Apex_merging.Datapath.config ->
  Apex_mining.Pattern.t ->
  verdict
(** [verify_config dp cfg p] checks that [dp] configured with [cfg]
    implements pattern [p].  [cfg.inputs] must map every pattern input
    node to a datapath input port; pattern outputs are paired with
    [cfg.outputs] in position order, after 200 random 16-bit tests.
    Defaults: [width = 8], [conflict_budget = 200_000]. *)

val pp_verdict : Format.formatter -> verdict -> unit

val encode_datapath :
  Apex_smt.Bv.ctx ->
  Apex_merging.Datapath.t ->
  Apex_merging.Datapath.config ->
  (int * Apex_smt.Bv.bv) list ->
  Apex_smt.Bv.bv list
(** Bit-blast the datapath under a configuration: each input-port node
    reads its vector from the association list (unbound ports become
    fresh variables), Cregs become constants, and active FUs fold their
    routed arguments through {!Apex_smt.Bv.eval_op}.  Returns the
    output vectors in position order.  Exposed for the equivalence
    obligations of {!Configspace.analyze}.
    @raise Failure when the config reads an inactive FU or lacks a
    route for a needed port. *)
