(** Cycle-level simulation of the compiled application on the fabric —
    our stand-in for the paper's Synopsys VCS runs.

    The simulator models the statically scheduled pipeline: every PE
    instance is a [pe_latency]-deep pipeline, every balanced edge is a
    delay line of the registers that branch-delay matching inserted, and
    one input frame is consumed per cycle (initiation interval 1).  PE
    instructions come from the bitstream ({!Bitstream.instr_at}), so a
    bad instruction packing or a bad balancing plan shows up as a wrong
    output, exactly like an RTL simulation mismatch.  Connections do
    not: which driver feeds each PE input and application output is
    read from the cover ([mapped]), not from the switch-box words, so
    routing is not checked.  A PE input that no connection drives reads
    0, as an unselected connection box does.

    Outputs for frame [f] appear at cycle [f + plan.depth_cycles]; the
    result list is aligned per input frame. *)

type report = {
  outputs : (string * int) list list;  (** one list per input frame *)
  cycles : int;                        (** total simulated cycles *)
}

val run :
  spec:Apex_peak.Spec.t ->
  mapped:Apex_mapper.Cover.t ->
  plan:Apex_pipelining.App_pipeline.plan ->
  bitstream:Bitstream.t ->
  placement:Place.t ->
  frames:(string * int) list list ->
  report
(** @raise Failure if a tile's bitstream is missing or inconsistent. *)
