(** PE specifications — our stand-in for the PEak DSL [3].

    A spec wraps a merged datapath with an explicit configuration-space
    description: a list of named fields (operation selects, intraconnect
    mux selects, constant registers, output selects).  Like PEak, the
    same specification drives the functional model ({!eval}), the
    hardware description ({!Verilog}) and rewrite-rule synthesis
    ({!Apex_verif.Synth} via the functional model).

    Each select field indexes a menu {!Apex_merging.Datapath} owns
    ([fu_menu], [mux_sources], [output_candidates]) and is
    [Datapath.log2ceil] bits wide; this module names and orders the
    fields and translates configs to and from their values. *)

type field = {
  name : string;
  bits : int;        (** encoding width *)
  choices : int;     (** number of legal values (2^bits for registers) *)
  target : target;
}

and target =
  | Fu_op of int           (** FU node: indexes its [Datapath.fu_menu] *)
  | Mux of int * int       (** (dst node, port): indexes its [Datapath.mux_sources] *)
  | Const_val of int       (** Creg node: 16-bit immediate *)
  | Lut_table of int       (** lut FU node: 8-bit truth table *)
  | Out_sel of int         (** output position: indexes its [Datapath.output_candidates] *)

type t = {
  name : string;
  dp : Apex_merging.Datapath.t;
  fields : field list;
}

type instr = (string * int) list
(** An instruction: a value for every field (missing fields read 0). *)

val of_datapath : name:string -> Apex_merging.Datapath.t -> t
(** Derive the configuration space of a datapath.  Field order and
    naming are deterministic. *)

val n_config_bits : t -> int

val field : t -> string -> field
(** @raise Not_found for unknown names. *)

val encode : t -> Apex_merging.Datapath.config -> instr
(** Translate a datapath configuration (e.g. merge provenance) into
    field values.  @raise Failure if the config routes an edge that the
    spec's muxes cannot express. *)

val decode : t -> instr -> Apex_merging.Datapath.config
(** Total decoding: every FU gets an operation, every port a source,
    every output position a driver.  Inverse of {!encode} on the fields
    that [encode] sets. *)

val eval : t -> instr -> env:(int * int) list -> (int * int) list
(** Functional model: decode then evaluate the datapath.  [env] keys are
    input-port node ids; the result keys are output positions. *)

val input_ports : t -> int list
(** Word input-port node ids, in id order. *)

val bit_input_ports : t -> int list

val output_positions : t -> int list
