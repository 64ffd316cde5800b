(** Dataflow graphs.

    A graph is a DAG of {!Op.t} nodes with ordered input ports.  Node ids
    are dense indices in topological order: every argument id is strictly
    smaller than the id of the node using it.  Graphs are immutable once
    built; transformations construct new graphs through {!Builder}. *)

type node = {
  id : int;
  op : Op.t;
  args : int array;  (** argument node ids, in port order *)
}

type t

val nodes : t -> node array
(** All nodes; index [i] holds the node with [id = i]. *)

val node : t -> int -> node
(** [node g i] is the node with id [i].  @raise Invalid_argument if out
    of range. *)

val length : t -> int

val succs : t -> int list array
(** [succs g] maps each node id to the ids of the nodes consuming its
    result, in increasing order. *)

val fanout : t -> int -> int

val compute_ids : t -> int list
(** Ids of the compute nodes (see {!Op.is_compute}), increasing. *)

val io_inputs : t -> node list
(** Word and bit input nodes in id order. *)

val io_outputs : t -> node list

val count : t -> (Op.t -> bool) -> int

val validate : t -> (unit, string) result
(** Check arity, port widths and topological ordering of every node. *)

val of_nodes_unchecked : node array -> t
(** Wrap a raw node array with NO validation — the result may violate
    every invariant {!validate} checks.  Exists so the lint test suite
    can build deliberately corrupt graphs; flow code must use
    {!Builder}. *)

(** Mutable graph construction. *)
module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add : t -> Op.t -> int array -> int
  (** [add b op args] appends a node and returns its id.
      @raise Invalid_argument if the arity is wrong or an argument id is
      not smaller than the new node's id. *)

  val add0 : t -> Op.t -> int
  val add1 : t -> Op.t -> int -> int
  val add2 : t -> Op.t -> int -> int -> int
  val add3 : t -> Op.t -> int -> int -> int -> int

  val finish : t -> graph
end

val map_ops : t -> (Op.t -> Op.t) -> t
(** Rebuild the graph with each node's operation rewritten. *)

val induced : t -> int list -> t * (int * int) list
(** [induced g ids] extracts the subgraph induced by [ids].  Arguments of
    kept nodes that fall outside [ids] become fresh [Input]/[Bit_input]
    nodes.  Returns the new graph and the mapping from old compute ids to
    new ids.  Costs O(k log k) in the number of kept ids, independent of
    the size of [g].
    @raise Invalid_argument naming the id when an id is out of range or
    listed twice. *)

val with_widths : t -> int array -> t
(** The same graph carrying a result width (in bits) per node id, as
    proven by [Apex_analysis.Width].  The argument graph is left as it
    was, so a graph shared between callers never changes under them.
    Structural transformations ({!map_ops}, {!induced}, {!Builder})
    never carry the annotation over, since the proof is per-graph.
    @raise Invalid_argument on a length mismatch. *)

val widths : t -> int array option
(** The width annotation, if the graph was built by {!with_widths}. *)

val op_histogram : t -> (string * int) list
(** Number of nodes per {!Op.mnemonic}, sorted by mnemonic. *)

val pp : Format.formatter -> t -> unit
