(** The CGRA fabric (Fig. 1): a grid of PE and MEM tiles connected by a
    statically configured interconnect with [word_tracks] 16-bit routing
    tracks per direction.  Matching the comparison system, memory tiles
    form full columns at a fixed period and I/O sits on the west (input)
    and east (output) edges. *)

type tile_kind = Pe_tile | Mem_tile

type t = {
  width : int;
  height : int;
  params : Apex_models.Interconnect.params;
}

val create :
  ?width:int ->
  ?height:int ->
  ?params:Apex_models.Interconnect.params ->
  unit ->
  t
(** Defaults: 32x16 (the paper's array), MEM every 4th column, 5 word
    and 5 bit tracks. *)

val kind : t -> x:int -> y:int -> tile_kind

val pe_positions : t -> (int * int) list
(** All PE tile coordinates, row-major. *)

val n_pe_tiles : t -> int
val n_mem_tiles : t -> int

val in_bounds : t -> x:int -> y:int -> bool

val io_west : t -> int -> int * int
(** [io_west f i]: the fabric-edge coordinate where the i-th input
    stream enters (outside column -1, spread over rows). *)

val io_east : t -> int -> int * int
(** Coordinate where the i-th output stream exits. *)
