(** Negotiated-congestion routing (PathFinder-style) of the placed
    application over the fabric's routing tracks.

    Each net is routed as a tree of tile-to-tile hops; a directed tile
    boundary offers [word_tracks] 16-bit wires (1-bit nets ride the
    separate bit tracks).  Congested boundaries accumulate history cost
    and all nets are ripped up and rerouted until the solution is legal
    or the iteration cap is hit. *)

type hop = (int * int) * (int * int)
(** directed tile-boundary crossing *)

type net = {
  name : string;
  width : Apex_dfg.Op.width;
  source : int * int;
  sinks : (int * int) list;
  tree : hop list;   (** deduplicated directed hops of the routed tree *)
  tracks : (hop * int) list;
  (** detailed routing: the concrete track index (< [word_tracks] when
      the solution is legal) every hop occupies *)
}

type t = {
  nets : net list;
  word_hops : int;      (** total 16-bit boundary crossings *)
  bit_hops : int;
  overuse : int;        (** residual over-capacity boundaries (0 = legal) *)
  iterations : int;     (** rip-up/reroute rounds used *)
}

val route : Place.t -> Apex_mapper.Cover.t -> t
(** Route every net in at most 30 rip-up/reroute rounds; [overuse > 0]
    when the last round is still over capacity. *)

val tiles_touched : t -> (int * int) list
(** Tiles any route passes through, sorted: fabric tiles and the IO
    column tiles (x = -1 and x = width) where streams enter and exit. *)

val routing_only_tiles : t -> Place.t -> int
(** Tiles that only forward data: touched by routing but hosting no PE
    instance (Table 3's "routing-only tiles"). *)
