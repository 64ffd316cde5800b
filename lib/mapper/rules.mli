(** Rewrite rules: (pattern, PE configuration) pairs consumed by
    instruction selection (Section 4.1).

    A rule may be const-generic: its pattern contains constant nodes
    whose values act as wildcards, and applying the rule copies the
    matched application constants into the configuration's constant
    registers (the Fig. 2c constant-register input reduction). *)

type t = {
  pattern : Apex_mining.Pattern.t;
  config : Apex_merging.Datapath.config;
  (** input/output bindings refer to the pattern's canonical graph *)
  wild_consts : bool;
  (** constants in the pattern match any application constant *)
  size : int;  (** compute nodes covered; instruction selection orders
                   rules by decreasing size *)
}

val single_op_rules : Apex_merging.Datapath.t -> t list
(** Rules derived from the datapath's single-operation configurations
    (labels like "add", "add$c0", "add$c1", "mux", "lut"): one rule per
    plain operation, plus const-generic variants. *)

val pattern_rule : Apex_merging.Datapath.t -> Apex_mining.Pattern.t -> t option
(** Rule for a complex (merged) pattern via provenance or structural
    synthesis; [None] when synthesis fails or the SAT engine refutes the
    synthesized config.  Patterns containing constants become
    const-generic rules. *)

val rule_set :
  Apex_merging.Datapath.t -> patterns:Apex_mining.Pattern.t list -> t list
(** Complete rule set for a PE: complex rules for [patterns] plus all
    single-op rules, sorted complex-first (by decreasing size). *)
