(** A CDCL SAT solver — the core of our Boolector [7] substitute.

    Features: two-watched-literal propagation, first-UIP conflict
    analysis with clause learning, non-chronological backjumping, VSIDS
    branching with a variable-order heap, phase saving, and Luby
    restarts.  No clause deletion: the formulas produced by rewrite-rule
    verification are small enough not to need it.

    Literals are integers: variable [v] (0-based) appears positively as
    [pos v] and negatively as [neg_of (pos v)]. *)

type t

type result = Sat | Unsat | Unknown  (** [Unknown]: conflict budget hit *)

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val pos : int -> int
(** Positive literal of a variable. *)

val neg : int -> int
(** Negative literal of a variable. *)

val negate : int -> int
(** Complement a literal. *)

val add_clause : t -> int list -> unit
(** Add a clause (list of literals).  Adding the empty clause makes the
    instance trivially unsatisfiable.  Clauses may only be added before
    the first [solve] call or after a [Sat]/[Unsat] answer (the solver
    resets its trail). *)

val solve : ?conflict_budget:int -> t -> result
(** Decide satisfiability.  [conflict_budget] bounds the number of
    conflicts (default: unlimited). *)

val model_value : t -> int -> bool
(** Value of a variable in the last [Sat] model.
    @raise Invalid_argument if the last result was not [Sat]. *)

val stats : t -> int * int * int
(** (decisions, conflicts, propagations) since creation. *)
