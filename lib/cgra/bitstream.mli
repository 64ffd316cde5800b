(** Configuration bitstream generation (APEX step 3c).

    Every PE tile hosting an instance receives its instruction — the
    PE spec's fields packed LSB-first into 32-bit words — and every tile
    crossed by routing receives its switch-box hop configuration.  The
    instruction packing is invertible ({!unpack}): the fabric simulator
    decodes each PE's instruction from [pe_words].  The switch-box words
    are not: they hold one 2-bit out-direction code per hop leaving the
    tile, with no in-direction, track or connection-box port, so no
    route can be read back from them. *)

type t = {
  pe_words : ((int * int) * int list) list;
      (** tile -> packed instruction words *)
  sb_words : ((int * int) * int list) list;
      (** tile -> packed out-direction codes of the hops leaving it *)
  total_bits : int;
}

val generate :
  Apex_peak.Spec.t -> Place.t -> Apex_mapper.Cover.t -> Route.t -> t

val pack : Apex_peak.Spec.t -> Apex_peak.Spec.instr -> int list
(** Pack an instruction into 32-bit words, fields LSB-first in spec
    field order. *)

val unpack : Apex_peak.Spec.t -> int list -> Apex_peak.Spec.instr
(** Inverse of {!pack}. *)

val instr_at : t -> Apex_peak.Spec.t -> int * int -> Apex_peak.Spec.instr option
(** Decode the instruction configured at a tile, if any. *)
