(** Top-level CGRA Verilog generation (APEX step 2b): instantiate the
    generated PE module in every PE tile of the fabric, wire the
    switch-box track buses between neighbouring tiles, and expose the
    configuration scan chain.  Memory tiles are emitted as behavioral
    SRAM stubs with the Section 5 geometry (two 2KB banks). *)

val emit : Fabric.t -> Apex_peak.Spec.t -> string
(** Full fabric source: the PE module (from {!Apex_peak.Verilog},
    pipelined at {!Apex_pipelining.Pe_pipeline.rtl_stages}), a
    switch-box module, a memory-tile module and the top-level grid. *)
