module D = Apex_merging.Datapath
module Cost = Apex_peak.Cost
module Cover = Apex_mapper.Cover
module Pe_pipeline = Apex_pipelining.Pe_pipeline
module App_pipeline = Apex_pipelining.App_pipeline
module Fabric = Apex_cgra.Fabric
module Place = Apex_cgra.Place
module Route = Apex_cgra.Route
module Tech = Apex_models.Tech
module Interconnect = Apex_models.Interconnect
module Apps = Apex_halide.Apps

type post_mapping = {
  n_pes : int;
  pe_area : float;
  total_pe_area : float;
  pe_energy_per_output : float;
  utilization : float;
}

type post_pnr = {
  pm : post_mapping;
  fabric_width : int;
  fabric_height : int;
  sb_area : float;
  cb_area : float;
  mem_area : float;
  io_area : float;
  total_area : float;
  interconnect_energy_per_output : float;
  mem_energy_per_output : float;
  total_energy_per_output : float;
  routing_tiles : int;
  word_hops : int;
  wirelength : float;
  overuse : int;
}

type post_pipelining = {
  pnr : post_pnr;
  pe_stages : int;
  period_ps : float;
  pre_period_ps : float;
  n_regs : int;
  n_reg_files : int;
  depth_cycles : int;
  cycles_per_run : int;
  runtime_ms : float;
  pre_runtime_ms : float;
  perf_per_mm2 : float;
  pre_perf_per_mm2 : float;
  reg_area : float;
  reg_energy_per_output : float;
}

type layout = {
  cover : Cover.t;
  fabric : Fabric.t;
  placement : Place.t;
  routes : Route.t;
}

let post_mapping (v : Variants.t) (app : Apps.t) =
  let app = Optimize.app app in
  let mapped = Cover.map_app ~rules:v.rules app.graph in
  let pe_area = D.area v.dp in
  let n_pes = Cover.n_pes mapped in
  (* gating is recomputed from the datapath rather than read off the
     variant: the store keys digest only the datapath, so two
     variants with identical datapaths must cost identically whether or
     not one carries an analysis report *)
  let gated = Apex_verif.Configspace.gated_predicate v.dp in
  let energy_group =
    Array.fold_left
      (fun acc (inst : Cover.instance) ->
        acc +. Cost.config_energy ~gated v.dp inst.config)
      0.0 mapped.instances
  in
  ( { n_pes;
      pe_area;
      total_pe_area = float_of_int n_pes *. pe_area;
      pe_energy_per_output = energy_group /. float_of_int app.unroll;
      utilization = Cover.utilization mapped },
    mapped )

let fabric_for mapped =
  (* the paper's 32x16 array; grow rows when an application needs more
     PE tiles *)
  let rec fit height =
    let f = Fabric.create ~height () in
    if Fabric.n_pe_tiles f >= Cover.n_pes mapped then f else fit (height * 2)
  in
  fit 16

(* energy of one switch-box hop: the outgoing track mux plus the wire
   segment to the neighbouring tile *)
let hop_energy params =
  (Tech.word_mux_cost ((3 * params.Interconnect.word_tracks) + 2)).energy
  +. Tech.track_wire_energy

let post_pnr ?(effort = 1) ?mapping (v : Variants.t) (app : Apps.t) =
  let pm, mapped =
    match mapping with Some m -> m | None -> post_mapping v app
  in
  Apex_telemetry.Span.with_ "pnr" @@ fun () ->
  let fabric = fabric_for mapped in
  let placement = Place.place ~effort fabric mapped in
  let routes = Route.route placement mapped in
  (* overuse is a property of the pair (kernel, variant, effort), not
     a circumstance of this run: the pair is priced and stored as is *)
  if routes.Route.overuse > 0 then
    Apex_telemetry.Counter.add "cgra.route_overuse" routes.Route.overuse;
  let routing_tiles = Route.routing_only_tiles routes placement in
  let params = fabric.Fabric.params in
  let word_inputs = D.n_word_inputs v.dp in
  let bit_inputs = D.n_bit_inputs v.dp in
  let used_pe_tiles = pm.n_pes + routing_tiles in
  let sb = Interconnect.sb_cost params ~tile_outputs:2 in
  let cb = Interconnect.cb_cost params in
  let cb_bit = Interconnect.cb_bit_cost params in
  let sb_area =
    float_of_int (used_pe_tiles + app.mem_tiles) *. sb.Tech.area
  in
  let cb_area =
    float_of_int pm.n_pes
    *. ((float_of_int word_inputs *. cb.Tech.area)
       +. (float_of_int bit_inputs *. cb_bit.Tech.area))
  in
  let mem_area = float_of_int app.mem_tiles *. Tech.mem_tile_cost.area in
  let io_area = float_of_int app.io_tiles *. Tech.io_tile_cost.area in
  let total_area = pm.total_pe_area +. sb_area +. cb_area +. mem_area +. io_area in
  let interconnect_energy =
    (float_of_int routes.Route.word_hops *. hop_energy params)
    +. (float_of_int pm.n_pes
       *. ((float_of_int word_inputs *. cb.Tech.energy)
          +. (float_of_int bit_inputs *. cb_bit.Tech.energy)))
  in
  let mem_energy = float_of_int app.mem_tiles *. Tech.mem_tile_cost.energy in
  let per_output x = x /. float_of_int app.unroll in
  ( { pm;
      fabric_width = fabric.Fabric.width;
      fabric_height = fabric.Fabric.height;
      sb_area;
      cb_area;
      mem_area;
      io_area;
      total_area;
      interconnect_energy_per_output = per_output interconnect_energy;
      mem_energy_per_output = per_output mem_energy;
      total_energy_per_output =
        pm.pe_energy_per_output
        +. per_output (interconnect_energy +. mem_energy);
      routing_tiles;
      word_hops = routes.Route.word_hops;
      wirelength = placement.Place.wirelength;
      overuse = routes.Route.overuse },
    { cover = mapped; fabric; placement; routes } )

let post_pipelining ?(effort = 1) ?mapping (v : Variants.t) (app : Apps.t) =
  let pnr, layout = post_pnr ~effort ?mapping v app in
  let mapped = layout.cover in
  Apex_telemetry.Span.with_ "pipelining" @@ fun () ->
  let pe_plan = Pe_pipeline.plan v.dp in
  let app_plan = App_pipeline.balance mapped ~pe_latency:pe_plan.stages in
  Check.verify "pipelining"
    [ Apex_lint.Engine.Pe_plan { label = v.name; dp = v.dp; plan = pe_plan };
      Apex_lint.Engine.App_plan
        { label = Printf.sprintf "%s:%s" v.name app.name;
          cover = mapped;
          plan = app_plan } ];
  (* pre-pipelining, the application is one combinational wave: the
     clock must span the longest PE chain of the mapped graph (this is
     what makes Fig. 16's post-pipelining gains large) *)
  let chain_depth =
    max 1 App_pipeline.(balance mapped ~pe_latency:1).depth_cycles
  in
  let pre_period_ps =
    Float.max Tech.clock_period_ps
      (float_of_int chain_depth *. Cost.critical_path v.dp)
  in
  let period_ps = Float.max pe_plan.period_ps Tech.clock_period_ps in
  let firings = (app.outputs_per_run + app.unroll - 1) / app.unroll in
  let cycles_per_run = firings + app_plan.depth_cycles in
  let runtime_ms = float_of_int cycles_per_run *. period_ps *. 1e-9 in
  let pre_cycles = firings + 1 in
  let pre_runtime_ms = float_of_int pre_cycles *. pre_period_ps *. 1e-9 in
  let reg_area =
    App_pipeline.regs_area app_plan
    +. (float_of_int pnr.pm.n_pes *. pe_plan.reg_area)
  in
  let area_mm2 = (pnr.total_area +. reg_area) *. 1e-6 in
  let perf runtime = 1.0 /. runtime /. Float.max 1e-9 area_mm2 in
  (* achieved initiation interval: cycles per output firing, including
     the amortized pipeline fill *)
  Apex_telemetry.Counter.observe "pipelining.ii_achieved"
    (float_of_int cycles_per_run /. float_of_int (max 1 firings));
  ( { pnr;
      pe_stages = pe_plan.stages;
      period_ps;
      pre_period_ps;
      n_regs = app_plan.n_regs;
      n_reg_files = app_plan.n_reg_files;
      depth_cycles = app_plan.depth_cycles;
      cycles_per_run;
      runtime_ms;
      pre_runtime_ms;
      perf_per_mm2 = perf runtime_ms;
      pre_perf_per_mm2 = perf pre_runtime_ms;
      reg_area;
      reg_energy_per_output =
        (App_pipeline.regs_energy app_plan
        +. (float_of_int pnr.pm.n_pes *. pe_plan.reg_energy))
        /. float_of_int app.unroll },
    layout,
    app_plan )
