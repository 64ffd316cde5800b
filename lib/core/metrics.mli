(** Evaluation metrics at the paper's three reporting levels
    (Section 5.3): post-mapping (PE cores only, minutes-level estimate),
    post-place-and-route (adds the interconnect) and post-pipelining
    (adds PE/application pipelining and performance).

    This is the flow's one back end.  Each level hands back what it
    built (cover, {!layout}, application plan) beside its metric record,
    never inside it, so the DSE stores only metrics and [apex compile]
    adds just the bitstream and the fabric simulation. *)

type post_mapping = {
  n_pes : int;                 (** PE instances the application needs *)
  pe_area : float;             (** um^2 per PE core *)
  total_pe_area : float;       (** n_pes * pe_area (Table 2 "Total Area") *)
  pe_energy_per_output : float;(** fJ per output element, PE cores only *)
  utilization : float;         (** application ops per PE *)
}

type post_pnr = {
  pm : post_mapping;
  fabric_width : int;
  fabric_height : int;
  sb_area : float;             (** switch boxes of all used tiles, um^2 *)
  cb_area : float;             (** connection boxes of used PE tiles *)
  mem_area : float;
  io_area : float;
  total_area : float;          (** PE cores + interconnect + MEM + IO, um^2 *)
  interconnect_energy_per_output : float;  (** fJ: SB hops + CBs *)
  mem_energy_per_output : float;
  total_energy_per_output : float;
  routing_tiles : int;         (** routing-only tiles (Table 3) *)
  word_hops : int;
  wirelength : float;
  overuse : int;
      (** boundaries still over capacity when routing stopped (0 =
          legal), also counted in [cgra.route_overuse] *)
}

type post_pipelining = {
  pnr : post_pnr;
  pe_stages : int;
  period_ps : float;           (** post-pipelining clock *)
  pre_period_ps : float;       (** combinational-PE clock *)
  n_regs : int;                (** balancing registers (Table 3 #Reg) *)
  n_reg_files : int;           (** register-file FIFOs (Table 3 #RF) *)
  depth_cycles : int;
  cycles_per_run : int;        (** one frame / layer *)
  runtime_ms : float;
  pre_runtime_ms : float;
  perf_per_mm2 : float;        (** runs per ms per mm^2 (Table 2) *)
  pre_perf_per_mm2 : float;
  reg_area : float;
  reg_energy_per_output : float;
}

type layout = {
  cover : Apex_mapper.Cover.t;
  fabric : Apex_cgra.Fabric.t;
      (** the paper's 32x16 array, rows doubled until the cover fits *)
  placement : Apex_cgra.Place.t;
  routes : Apex_cgra.Route.t;
}
(** What place and route built for one (variant, application) pair. *)

val post_mapping :
  Variants.t -> Apex_halide.Apps.t -> post_mapping * Apex_mapper.Cover.t
(** Map the application and report PE-core metrics.
    @raise Apex_mapper.Cover.Unmappable if the variant's rules cannot
    cover the application. *)

val post_pnr :
  ?effort:int ->
  ?mapping:post_mapping * Apex_mapper.Cover.t ->
  Variants.t -> Apex_halide.Apps.t -> post_pnr * layout
(** {!post_mapping} (or [mapping], its result for this same pair when
    the caller already has it: the DSE hands over the mapping its
    PE Spec climb scored), then place ([effort], default 1) and route
    on the layout's fabric.  A routing still over capacity when
    negotiation stops is priced as is and reported in [overuse]: a
    result of the pair, not a degraded outcome, so it is stored like
    any other. *)

val post_pipelining :
  ?effort:int ->
  ?mapping:post_mapping * Apex_mapper.Cover.t ->
  Variants.t -> Apex_halide.Apps.t ->
  post_pipelining * layout * Apex_pipelining.App_pipeline.plan
(** {!post_pnr}, then pipeline the PE and balance the application at
    its latency; the plan is what the fabric simulator replays. *)
