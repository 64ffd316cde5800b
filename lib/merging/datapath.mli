(** Merged datapath graphs — the output of subgraph merging and the
    input to PE generation (Section 3.3).

    A datapath is a graph of functional units (FUs), constant registers
    and input ports.  A (destination, port) pair may have several
    incoming edges; the extra sources imply an intraconnect multiplexer
    with a configuration field.  A {!config} activates one operation per
    FU and one source per used port, realizing one of the merged
    patterns; only the active edges matter, so the static graph is kept
    acyclic (we reject merges that would create static cycles, which
    also keeps RTL generation and timing analysis straightforward).

    This module owns the configuration space: every select field of the
    PE's configuration word indexes {!fu_menu}, {!mux_sources} or
    {!output_candidates} and is {!log2ceil} bits wide.  The PE spec, its
    RTL, the SAT encoding of legal words and rule synthesis read these. *)

type unit_kind =
  | Fu of string   (** functional-unit block; the string is {!Apex_dfg.Op.kind} *)
  | Creg           (** 16-bit configurable constant register *)
  | In_port        (** 16-bit PE input *)
  | Bit_in_port    (** 1-bit PE input *)

type node = {
  id : int;
  kind : unit_kind;
  ops : Apex_dfg.Op.t list;
  (** for [Fu]: the operations the block must support (its kind's ops
      only); for [Creg]: the constant values observed (informational —
      the register is configurable) *)
  width : int;
  (** proven datapath width in bits, 1..16.  Word units start at the
      native 16 and are narrowed by {!Apex_analysis.Width} when every
      merged pattern's demand allows it; bit-level units are 1. *)
}

type edge = { src : int; dst : int; port : int }

type config = {
  label : string;  (** canonical code of the pattern this config implements *)
  fu_ops : (int * Apex_dfg.Op.t) list;    (** active FU -> operation *)
  routes : ((int * int) * int) list;      (** (dst, port) -> source node *)
  consts : (int * int) list;              (** Creg -> value *)
  inputs : (int * int) list;              (** pattern input node id -> In/Bit_in port *)
  outputs : (int * int) list;             (** pattern output position -> datapath node *)
}

type t = {
  nodes : node array;
  edges : edge list;
  configs : config list;  (** one per merged pattern, in merge order *)
}

val of_pattern : Apex_mining.Pattern.t -> t
(** A datapath implementing exactly one pattern: one FU per compute
    node, one [Creg] per constant, one port per external input, plus the
    pattern's trivial configuration. *)

val validate : t -> (unit, string) result
(** Structural checks: edge endpoints in range, static acyclicity, every
    config routing only existing edges, FU ops within kind. *)

val result_width : node -> Apex_dfg.Op.width
(** Width of the value a node produces. *)

val natural_width : unit_kind -> int
(** Full width of a unit before narrowing: 1 for bit-level units
    ("cmp"/"lut" FUs and bit input ports), 16 otherwise. *)

val sources : t -> dst:int -> port:int -> int list
(** All static sources feeding a port (>= 2 means an intraconnect mux). *)

val log2ceil : int -> int
(** Bits of a field that selects among [n] choices: ceil(log2 n), and 0
    when [n <= 1]. *)

val fu_menu : node -> Apex_dfg.Op.t list
(** An FU's ops, sorted and distinct; an op-select field indexes it. *)

val mux_sources : t -> ((int * int) * int list) list
(** Every (dst, port) with an incoming edge, sorted, with its sorted
    distinct sources; a mux-select field indexes that list. *)

val output_candidates : t -> (int * int list) list
(** Every output position a registered config exposes, sorted, with its
    sorted distinct drivers over all configs; an output-select field
    indexes that list. *)

val mux_points : t -> ((int * int) * int) list
(** Fan-in points that need a mux: ((dst, port), n_sources) pairs with
    at least two distinct sources, in {!mux_sources} order. *)

val n_word_inputs : t -> int
val n_bit_inputs : t -> int
val n_outputs : t -> int
(** Maximum number of simultaneously exposed outputs over all configs. *)

val evaluate : t -> config -> env:(int * int) list -> (int * int) list
(** Functional model: evaluate the datapath under a configuration.
    [env] assigns a value to each input-port node; the result assigns a
    value to each pattern output position.  Only active edges are
    followed, so evaluation is well-defined even for configurations of
    heavily merged datapaths.

    All bindings ([env], [routes], [consts], [fu_ops]) use
    first-matching-key semantics: when a key is bound twice, the
    earliest binding wins and the rest are ignored (they are
    association lists probed with [List.assoc_opt]).  Routes are
    followed whether or not a matching static edge exists — structural
    agreement between configs and edges is {!validate}'s job, not the
    evaluator's.
    @raise Invalid_argument naming the offending node if the active
    subgraph is cyclic, an input is unset, an inactive FU is read, a
    route is missing, or a route or output references a node id outside
    the node table. *)

val area : t -> float
(** Quick area estimate (um^2): FU blocks + op slices + constant
    registers + intraconnect muxes + configuration overhead.  PE-level
    reporting adds I/O and pipelining costs in [Apex_peak]. *)

val n_config_bits : t -> int
(** Bits needed to encode any configuration: FU op selects, mux selects,
    constant registers (at their proven width), output selects, plus
    one active bit. *)

val pp : Format.formatter -> t -> unit

val to_dot : ?name:string -> t -> string
(** Graphviz rendering of the merged datapath: functional units as
    boxes labelled with their op sets, constant registers as diamonds,
    input ports as ovals; multi-source ports show their mux fan-in. *)
