(** Technology model: per-primitive area, energy and delay.

    The paper synthesizes primitives with Design Compiler in a TSMC
    technology and never publishes the raw library numbers, only derived
    results (e.g. Table 2: the baseline PE core is 988.81 um^2 at a
    1.1 ns clock).  This module provides a synthetic standard-cell-like
    table calibrated so that the structural baseline PE lands on the
    paper's published area and the primitive delay ratios are plausible
    for a 16-bit datapath (multiplier ~2.5x an adder, etc.). *)

type cost = {
  area : float;    (** um^2 *)
  energy : float;  (** fJ per operation (average activity) *)
  delay : float;   (** ps, input-to-output combinational *)
}

val op_cost : Apex_dfg.Op.t -> cost
(** Cost of a dedicated functional unit implementing exactly this
    operation.  I/O markers are free; [Reg]/[Reg_file] price the
    register(s). *)

val kind_cost : string -> cost
(** Cost of a shared functional-unit *block* of the given {!Apex_dfg.Op.kind}
    ("alu", "mul", "shift", "logic", "cmp", "mux", "lut").  A block
    implementing several ops of one kind costs [kind_cost kind] plus
    [op_slice] for each supported op beyond the first. *)

val op_slice : Apex_dfg.Op.t -> float
(** Incremental area (um^2) of adding this operation to an existing
    block of its kind. *)

val word_width : int
(** Native datapath width: 16 bits. *)

val width_factor : kind:string -> width:int -> float
(** Area/energy scale factor for a unit of the given
    {!Apex_dfg.Op.kind} built at a proven [width] instead of the native
    16 bits: 1.0 at full width (the calibrated table is exact there),
    quadratic in width for "mul", linear for everything else, constant
    1.0 for the already-bit-level "lut".  Clamped to [1, 16]. *)

val word_mux_cost : int -> cost
(** Cost of an n-to-1 16-bit multiplexer (intraconnect mux inserted by
    datapath merging). *)

val const_register_cost : cost
(** 16-bit configuration-time constant register. *)

val pipeline_register_cost : cost
(** 16-bit pipeline register including clock load. *)

val register_file_cost : depth:int -> cost
(** Small register file used as a FIFO (Section 4.3). *)

val config_overhead : n_config_bits:int -> cost
(** Configuration storage and decode logic for a PE with the given
    number of configuration bits. *)

val gated_idle_activity : float
(** Residual switching-activity fraction of a clock-gated idle FU —
    what an FU inside a configuration-space mutual-exclusion clique
    (see [Apex_verif.Configspace]) pays instead of the ungated idle
    activity of [Apex_peak.Cost]. *)

val clock_period_ps : float
(** Target clock period: 1.1 ns, matching Table 2. *)

val track_wire_energy : float
(** fJ to drive one 16-bit routing-track segment between tiles. *)

val mem_tile_cost : cost
(** One memory tile: two 2KB SRAM banks, address generators and
    controllers; energy is per access. *)

val io_tile_cost : cost
(** One stream I/O tile. *)
