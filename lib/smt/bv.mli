(** Bit-vector layer over the SAT core: Tseitin bit-blasting of the
    dataflow operation set, used to discharge the
    [exists config, forall inputs] rewrite-rule queries (Section 4.1.1)
    at a reduced bit width.

    A bit-vector is an array of SAT literals, least-significant bit
    first.  All word operations are width-polymorphic; both sides of an
    equivalence query must be encoded at the same width and then share
    one self-consistent semantics (shift amounts saturate at the width,
    arithmetic wraps). *)

type ctx

type bv = int array
(** literals, LSB first *)

val create : ?word_width:int -> unit -> ctx
(** [word_width] (default 8) is the width used to encode [Const]
    operations and, by convention, every word value in a query. *)

val word_width : ctx -> int

val sat : ctx -> Sat.t

val false_lit : ctx -> int

val fresh : ctx -> int -> bv
(** A vector of fresh variables of the given width. *)

val const : ctx -> width:int -> int -> bv

val eval_op : ctx -> Apex_dfg.Op.t -> bv array -> bv
(** Encode one operation over already-encoded arguments.  Word arguments
    must share a width; comparison results and [Lut] results have width
    1.  Mirrors {!Apex_dfg.Sem.eval} at the vector width.
    @raise Invalid_argument for I/O markers. *)

val assert_equal : ctx -> bv -> bv -> unit

val assert_not_equal : ctx -> bv list -> bv list -> unit
(** Assert that at least one corresponding pair differs — the
    counterexample query of equivalence checking.
    @raise Invalid_argument on length mismatch. *)

val model_of : ctx -> bv -> int
(** Integer value of a vector in the last SAT model. *)

val add : ctx -> bv -> bv -> bv
val sub : ctx -> bv -> bv -> bv
val mul : ctx -> bv -> bv -> bv
val ult : ctx -> bv -> bv -> int
val slt : ctx -> bv -> bv -> int
val eq : ctx -> bv -> bv -> int
val mux : ctx -> int -> bv -> bv -> bv
