(* Building an ML-domain CGRA (Section 5.4.2): specialize a PE for the
   machine-learning applications and compare the resulting CGRA against
   the baseline CGRA, an FPGA and the Simba accelerator models.

   Run with: dune exec examples/ml_accelerator.exe *)

module Apps = Apex_halide.Apps
module Comparators = Apex_models.Comparators

let () =
  let apps = Apex.Dse.ml_apps () in
  let pe_ml = Apex.Dse.pe_ml () in
  let base = Apex.Dse.variant_for "base" in
  Format.printf "PE ML merges %d mined subgraphs:@."
    (List.length pe_ml.patterns);
  List.iter
    (fun p -> Format.printf "  %s@." (Apex_mining.Pattern.code p))
    pe_ml.patterns;
  Format.printf "@.%-10s %-8s %8s %14s %14s %10s@." "app" "PE" "#PEs"
    "CGRA area um2" "energy/out fJ" "routing";
  List.iter
    (fun (app : Apps.t) ->
      List.iter
        (fun (v : Apex.Variants.t) ->
          let pnr, _ = Apex.Metrics.post_pnr v app in
          Format.printf "%-10s %-8s %8d %14.0f %14.1f %10d@." app.name v.name
            pnr.Apex.Metrics.pm.n_pes pnr.total_area
            pnr.total_energy_per_output pnr.routing_tiles)
        [ base; pe_ml ])
    apps;
  (* accelerator comparison for one ResNet layer *)
  let resnet = Apps.by_name "resnet" in
  let profile = Apps.profile resnet in
  let fpga = Comparators.fpga profile in
  let simba = Comparators.simba profile in
  let pp, _, _ = Apex.Metrics.post_pipelining pe_ml resnet in
  let cgra_energy_uj =
    pp.Apex.Metrics.pnr.total_energy_per_output
    *. float_of_int resnet.outputs_per_run *. 1e-9
  in
  Format.printf
    "@.ResNet layer energy: FPGA %.2f uJ | CGRA-ML %.2f uJ | Simba %.2f uJ@."
    fpga.Comparators.energy_uj cgra_energy_uj simba.Comparators.energy_uj;
  Format.printf
    "CGRA-ML sits between the FPGA and the dedicated accelerator, while \
     staying configurable.@."
