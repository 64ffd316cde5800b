(** Known-bits domain: per-bit tri-state masks.

    [zeros] holds the bits proven 0, [ones] the bits proven 1; a bit in
    neither is unknown.  Invariant: [zeros land ones = 0]. *)

type t = { zeros : int; ones : int }

val top : t
val bit_top : t
(** Top for Bit-width values: bits 1..15 known zero. *)

val const : int -> t

val known : t -> int
(** Mask of the known bit positions. *)

val is_const : t -> int option
val equal : t -> t -> bool
val mem : int -> t -> bool

val join : t -> t -> t
(** Keep only the bits both sides agree on. *)

val meet : t -> t -> t option
(** Combine compatible facts; [None] if they contradict. *)

type tri = K0 | K1 | U

val tri_of : t -> int -> tri
(** State of one bit position. *)

(** Transfer functions (16-bit, mirroring {!Apex_dfg.Sem}). *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t
val add : t -> t -> t
(** Ripple-carry with carry-knowledge tracking. *)

val sub : t -> t -> t
val mul : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

val unsigned_min : t -> int
val unsigned_max : t -> int
(** Any value with these known bits lies in
    [[unsigned_min, unsigned_max]]. *)

val of_unsigned_range : int -> int -> t
(** Known bits implied by a non-wrapped unsigned range: the common
    leading prefix of the two bounds. *)

val pp : Format.formatter -> t -> unit
