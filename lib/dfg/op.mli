(** Word-level operations of the dataflow-graph IR.

    This is our stand-in for the CoreIR primitive library used by the
    paper's Halide compiler: 16-bit word operations plus 1-bit predicate
    operations.  Every operation has a fixed arity with ordered ports;
    port order matters for non-commutative operations (shifts, subtract,
    comparisons) exactly as in the paper's merging rules (Section 3.3). *)

(** The width of a value flowing on an edge. *)
type width =
  | Word  (** 16-bit word *)
  | Bit   (** 1-bit predicate *)

type t =
  | Add | Sub | Mul
  | Shl | Lshr | Ashr
  | And | Or | Xor | Not
  | Abs | Smax | Smin | Umax | Umin
  | Eq | Neq | Slt | Sle | Ult | Ule
  | Mux            (** [Mux (sel, a, b)]: [sel = 1] selects [a] *)
  | Lut of int     (** 3-input 1-bit LUT; argument is the 8-bit truth table *)
  | Const of int   (** 16-bit constant, value masked to 16 bits *)
  | Bit_const of bool
  | Input of string      (** 16-bit application input *)
  | Bit_input of string  (** 1-bit application input *)
  | Output of string     (** 16-bit application output *)
  | Bit_output of string (** 1-bit application output *)
  | Reg            (** single pipeline register *)
  | Reg_file of int (** register file used as a FIFO of the given depth *)

val arity : t -> int
(** Number of input ports. *)

val input_widths : t -> width array
(** Width of each input port, in port order. *)

val result_width : t -> width
(** Width of the single result. *)

val is_commutative : t -> bool
(** [true] iff swapping the two input ports preserves semantics.  Only
    meaningful for binary operations; ternary and unary ops return
    [false]. *)

val is_compute : t -> bool
(** [true] for arithmetic/logic operations that execute inside a PE —
    i.e. everything except I/O markers, constants and registers.  Only
    compute nodes participate in subgraph mining. *)

val is_io : t -> bool
(** [true] for [Input], [Output], [Bit_input] and [Bit_output]. *)

val is_const : t -> bool
(** [true] for [Const] and [Bit_const]. *)

val kind : t -> string
(** A label identifying the hardware block class implementing the
    operation ("alu", "mul", "shift", "cmp", "mux", "lut", ...).  Two
    nodes can be merged onto one functional unit iff their kinds are
    equal (Section 3.3). *)

val mnemonic : t -> string
(** Short stable name used in canonical codes and printing. *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool

val compare : t -> t -> int

val all_compute : t list
(** One representative of every compute operation, for enumeration in
    tests and rewrite-rule synthesis. *)
