(** A miniature Halide: pure expression combinators over stencil windows
    that lower directly to the dataflow-graph IR — our stand-in for the
    Halide-to-CoreIR front end of the comparison system [3, 20].

    Expressions are hash-consed, so common subexpressions (shared taps
    of a convolution, reused gradients) become shared graph nodes, just
    as the real compiler's CSE would produce. *)

type ctx

type v
(** a 16-bit word value *)

type b
(** a 1-bit predicate *)

val create : unit -> ctx

val input : ctx -> string -> v
(** A named stream sample; repeated calls with one name share a node.
    Use {!tap} for stencil taps. *)

val tap : ctx -> string -> dx:int -> dy:int -> v
(** The input pixel of stream [name] at window offset [(dx, dy)]. *)

val const : ctx -> int -> v

val ( +: ) : ctx -> v -> v -> v
val ( -: ) : ctx -> v -> v -> v
val ( *: ) : ctx -> v -> v -> v
val shr : ctx -> v -> int -> v
(** logical shift right by a constant *)

val ashr' : ctx -> v -> int -> v
(** arithmetic shift right by a constant *)

val abs' : ctx -> v -> v
val smax' : ctx -> v -> v -> v
val smin' : ctx -> v -> v -> v
val or' : ctx -> v -> v -> v

val slt' : ctx -> v -> v -> b
val sgt' : ctx -> v -> v -> b
val ult' : ctx -> v -> v -> b

val select : ctx -> b -> v -> v -> v
(** [select c cond a b] is [a] when [cond]. *)

val clamp : ctx -> v -> lo:int -> hi:int -> v
(** signed clamp via smax/smin *)

val mulc : ctx -> v -> int -> v
(** multiply by a constant (a constant-register operand in hardware) *)

val output : ctx -> string -> v -> unit

val finish : ctx -> Apex_dfg.Graph.t
(** Lower to a validated dataflow graph.
    @raise Failure if validation fails (a DSL bug). *)
