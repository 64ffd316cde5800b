(** Golden-model evaluation of dataflow graphs.

    This is the reference semantics every other execution path (mapped
    graphs, the placed-and-routed fabric simulator) is checked against —
    our stand-in for the paper's Synopsys VCS simulations. *)

type env = (string * int) list
(** Values for the named [Input]/[Bit_input] nodes.  Word values are
    masked to 16 bits, bit values to 1 bit. *)

val run : Graph.t -> env -> (string * int) list
(** Evaluate the graph combinationally and return the value of every
    [Output]/[Bit_output], in output order.
    @raise Not_found if an input name is missing from the environment. *)

val random_env : Random.State.t -> Graph.t -> env
(** An environment with uniformly random 16-bit words (and bits) for
    every input of the graph. *)
