(* The `apex analyze` driver: per-application static-analysis report.

   For each application, run the abstract interpretation on the raw
   kernel, summarise how much the fact base knows (constant /
   range-bounded compute nodes), then run the validated optimizer and
   report the node-count reduction broken down by transform.  The
   optimized graph's validation verdict is part of the report — a
   [false] there is a soundness bug, not a property of the app. *)

module Apps = Apex_halide.Apps
module G = Apex_dfg.Graph
module Op = Apex_dfg.Op
module Absint = Apex_analysis.Absint
module Opt = Apex_analysis.Opt
module Width = Apex_analysis.Width
module Json = Apex_telemetry.Json
module Store = Apex_exec.Store

type app_report = {
  app : string;
  graph : G.t;
  nodes : int;
  compute_nodes : int;
  const_facts : int;  (** compute nodes with a provably constant value *)
  bounded_facts : int;  (** compute nodes with a non-trivial range/bits fact *)
  stats : Opt.stats;
  validated : bool;
  width : Width.t;  (** demanded-bits width inference on the raw kernel *)
}

let analyze (a : Apps.t) =
  let g = a.Apps.graph in
  let facts = Absint.analyze g in
  let const_facts = ref 0 and bounded = ref 0 and compute = ref 0 in
  Array.iter
    (fun (nd : G.node) ->
      if Op.is_compute nd.G.op then begin
        incr compute;
        match facts.(nd.G.id).Absint.cst with
        | Some _ -> incr const_facts
        | None -> if not (Absint.is_top nd facts.(nd.G.id)) then incr bounded
      end)
    (G.nodes g);
  let r = Opt.run g in
  {
    app = a.Apps.name;
    graph = g;
    nodes = G.length g;
    compute_nodes = !compute;
    const_facts = !const_facts;
    bounded_facts = !bounded;
    stats = r.Opt.stats;
    validated = r.Opt.validated;
    width = Width.infer g;
  }

(* The report is store-memoized on the kernel's content.  Unmemoized,
   every request re-proved every width cone: `analyze --all` made 881
   solver calls and took 0.49-0.65 s on each run on a 2-vCPU host,
   against no solver call and 13-14 ms with this memo warm.  A hit
   replays the computing run's analysis counters and exact outcomes
   (Store.memoize), and a fault-injected or deadline-cut optimizer or
   width inference is not stored. *)
let report_for (a : Apps.t) =
  Apex_telemetry.Span.with_ ("analyze:" ^ a.Apps.name) @@ fun () ->
  let report =
    Store.memoize ~ns:"analyze"
      ~key:(Store.key ~version:"analyze/2" a.Apps.graph)
      (fun () -> analyze a)
  in
  { report with app = a.Apps.name; graph = a.Apps.graph }

let run apps = List.map report_for apps

let reduction r = r.stats.Opt.before_nodes - r.stats.Opt.after_nodes

let pp_report ppf (r : app_report) =
  let s = r.stats in
  let w = r.width in
  Format.fprintf ppf
    "%-10s %4d -> %4d nodes (-%d)  folds %d, identities %d, cse %d, dce %d  \
     cones %d proved / %d rejected  facts: %d const, %d bounded of %d compute%s@."
    r.app s.Opt.before_nodes s.Opt.after_nodes (reduction r) s.Opt.const_folds
    s.Opt.identities s.Opt.cse_merged s.Opt.dce_removed s.Opt.cones_proved
    s.Opt.cones_rejected r.const_facts r.bounded_facts r.compute_nodes
    (if r.validated then "" else "  VALIDATION FAILED");
  Format.fprintf ppf
    "           widths: %d/%d nodes narrowed, %d bits saved  (%d proved, %d \
     tested-only, %d reverted)%s@."
    (Width.narrowed_nodes w) r.nodes (Width.bits_saved w) w.Width.proved
    w.Width.tested_only w.Width.rejected
    (if w.Width.validated then "" else "  WIDTH VALIDATION FAILED")

(* the per-node width table: every node the analysis proved narrower
   than its natural hardware width *)
let pp_width_table ppf (r : app_report) =
  let w = r.width in
  Array.iter
    (fun (nd : G.node) ->
      let i = nd.G.id in
      if w.Width.widths.(i) < w.Width.naturals.(i) then
        Format.fprintf ppf
          "           %%%-3d %-8s demand 0x%04x  live 0x%04x  width %2d/%2d@."
          i (Op.mnemonic nd.G.op) w.Width.demanded.(i) w.Width.live.(i)
          w.Width.widths.(i) w.Width.naturals.(i))
    (G.nodes r.graph)

let pp ?(width_table = false) ppf reports =
  List.iter
    (fun r ->
      pp_report ppf r;
      if width_table then pp_width_table ppf r)
    reports;
  let total = List.fold_left (fun acc r -> acc + reduction r) 0 reports in
  let reduced = List.length (List.filter (fun r -> reduction r > 0) reports) in
  let narrowed =
    List.length
      (List.filter (fun r -> Width.narrowed_nodes r.width > 0) reports)
  in
  let saved =
    List.fold_left (fun acc r -> acc + Width.bits_saved r.width) 0 reports
  in
  Format.fprintf ppf
    "%d application%s, %d with a smaller kernel, %d node%s eliminated in \
     total; %d with narrowed widths, %d bits saved@."
    (List.length reports)
    (if List.length reports = 1 then "" else "s")
    reduced total
    (if total = 1 then "" else "s")
    narrowed saved

let report_to_json (r : app_report) =
  let s = r.stats in
  Json.Obj
    [ ("app", Json.String r.app);
      ("nodes_before", Json.Int s.Opt.before_nodes);
      ("nodes_after", Json.Int s.Opt.after_nodes);
      ("reduction", Json.Int (reduction r));
      ("const_folds", Json.Int s.Opt.const_folds);
      ("identities", Json.Int s.Opt.identities);
      ("cse_merged", Json.Int s.Opt.cse_merged);
      ("dce_removed", Json.Int s.Opt.dce_removed);
      ("cones_proved", Json.Int s.Opt.cones_proved);
      ("cones_rejected", Json.Int s.Opt.cones_rejected);
      ("iterations", Json.Int s.Opt.iterations);
      ("compute_nodes", Json.Int r.compute_nodes);
      ("const_facts", Json.Int r.const_facts);
      ("bounded_facts", Json.Int r.bounded_facts);
      ("validated", Json.Bool r.validated);
      ( "width",
        let w = r.width in
        Json.Obj
          [ ("narrowed_nodes", Json.Int (Width.narrowed_nodes w));
            ("bits_saved", Json.Int (Width.bits_saved w));
            ("cones_proved", Json.Int w.Width.proved);
            ("tested_only", Json.Int w.Width.tested_only);
            ("rejected", Json.Int w.Width.rejected);
            ("validated", Json.Bool w.Width.validated);
            ( "table",
              Json.List
                (Array.to_list (G.nodes r.graph)
                |> List.filter_map (fun (nd : G.node) ->
                       let i = nd.G.id in
                       if w.Width.widths.(i) < w.Width.naturals.(i) then
                         Some
                           (Json.Obj
                              [ ("node", Json.Int i);
                                ("op", Json.String (Op.mnemonic nd.G.op));
                                ("demanded", Json.Int w.Width.demanded.(i));
                                ("live", Json.Int w.Width.live.(i));
                                ("width", Json.Int w.Width.widths.(i));
                                ("natural", Json.Int w.Width.naturals.(i)) ])
                       else None)) ) ] ) ]

let to_json reports =
  Json.Obj
    [ ("apps", Json.List (List.map report_to_json reports));
      ( "summary",
        Json.Obj
          [ ("applications", Json.Int (List.length reports));
            ( "reduced",
              Json.Int
                (List.length (List.filter (fun r -> reduction r > 0) reports)) );
            ( "nodes_eliminated",
              Json.Int (List.fold_left (fun a r -> a + reduction r) 0 reports) );
            ( "narrowed",
              Json.Int
                (List.length
                   (List.filter
                      (fun r -> Width.narrowed_nodes r.width > 0)
                      reports)) );
            ( "bits_saved",
              Json.Int
                (List.fold_left
                   (fun a r -> a + Width.bits_saved r.width)
                   0 reports) );
            ( "all_validated",
              Json.Bool
                (List.for_all
                   (fun r -> r.validated && r.width.Width.validated)
                   reports) ) ] ) ]
