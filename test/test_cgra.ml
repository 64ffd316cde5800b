(* Tests for the CGRA fabric: placement, routing, bitstream and the
   fabric simulator checked against the golden interpreter. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Interp = Apex_dfg.Interp
module Library = Apex_peak.Library
module Spec = Apex_peak.Spec
module Rules = Apex_mapper.Rules
module Cover = Apex_mapper.Cover
module App_pipeline = Apex_pipelining.App_pipeline
module Fabric = Apex_cgra.Fabric
module Place = Apex_cgra.Place
module Route = Apex_cgra.Route
module Bitstream = Apex_cgra.Bitstream
module Sim = Apex_cgra.Sim
module Apps = Apex_halide.Apps

let check = Alcotest.check
let int = Alcotest.int

let gaussian_flow () =
  let app = Apps.by_name "gaussian" in
  let dp = Library.baseline () in
  let spec = Spec.of_datapath ~name:"baseline" dp in
  let rules = Rules.single_op_rules dp in
  let mapped = Cover.map_app ~rules app.graph in
  let fabric = Fabric.create () in
  let placement = Place.place ~effort:1 fabric mapped in
  let routes = Route.route placement mapped in
  let plan = App_pipeline.balance mapped ~pe_latency:1 in
  let bitstream = Bitstream.generate spec placement mapped routes in
  (app, dp, spec, mapped, fabric, placement, routes, plan, bitstream)

(* --- fabric --- *)

let test_fabric_structure () =
  let f = Fabric.create () in
  check int "total tiles" (32 * 16) (Fabric.n_pe_tiles f + Fabric.n_mem_tiles f);
  check int "mem columns" (8 * 16) (Fabric.n_mem_tiles f);
  Alcotest.(check bool) "pe at 0,0" true (Fabric.kind f ~x:0 ~y:0 = Fabric.Pe_tile);
  Alcotest.(check bool) "mem at 3,0" true (Fabric.kind f ~x:3 ~y:0 = Fabric.Mem_tile)

let test_fabric_io () =
  let f = Fabric.create () in
  Alcotest.(check bool) "west off-grid" true (fst (Fabric.io_west f 0) = -1);
  Alcotest.(check bool) "east off-grid" true (fst (Fabric.io_east f 0) = 32)

(* --- placement --- *)

let test_place_distinct_tiles () =
  let _, _, _, mapped, _, placement, _, _, _ = gaussian_flow () in
  let locs = Array.to_list placement.loc in
  check int "all placed" (Cover.n_pes mapped) (List.length locs);
  check int "distinct tiles" (List.length locs)
    (List.length (List.sort_uniq compare locs));
  List.iter
    (fun (x, y) ->
      Alcotest.(check bool) "on a PE tile" true
        (Fabric.kind placement.fabric ~x ~y = Fabric.Pe_tile))
    locs

let test_place_improves_wirelength () =
  let app = Apps.by_name "gaussian" in
  let dp = Library.baseline () in
  let rules = Rules.single_op_rules dp in
  let mapped = Cover.map_app ~rules app.graph in
  let fabric = Fabric.create () in
  let greedy = Place.place ~effort:0 fabric mapped in
  let annealed = Place.place ~effort:1 fabric mapped in
  Alcotest.(check bool)
    (Printf.sprintf "annealed %.0f <= greedy %.0f" annealed.wirelength
       greedy.wirelength)
    true
    (annealed.wirelength <= greedy.wirelength)

let test_place_does_not_fit () =
  let app = Apps.by_name "camera" in
  let dp = Library.baseline () in
  let rules = Rules.single_op_rules dp in
  let mapped = Cover.map_app ~rules app.graph in
  let tiny = Fabric.create ~width:4 ~height:4 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Place.place tiny mapped);
       false
     with Place.Does_not_fit _ -> true)

let test_place_deterministic () =
  let app = Apps.by_name "gaussian" in
  let dp = Library.baseline () in
  let rules = Rules.single_op_rules dp in
  let mapped = Cover.map_app ~rules app.graph in
  let fabric = Fabric.create () in
  let p1 = Place.place ~seed:5 fabric mapped in
  let p2 = Place.place ~seed:5 fabric mapped in
  Alcotest.(check bool) "same placement" true (p1.loc = p2.loc)

(* Golden placements under the "PE Base" variant (default seed,
   effort 1).  The annealer's moves, their RNG draws and every
   accept/reject decision are pinned, so any change to the move loop
   that is not bit-identical shows up here. *)
let golden_placements =
  [ ( "gaussian",
      375.0,
      [| (2, 3); (1, 3); (0, 7); (1, 12); (5, 12); (5, 9); (5, 3); (4, 3);
         (4, 4); (4, 9); (4, 10); (5, 10); (6, 10); (6, 7); (4, 7); (2, 7);
         (9, 3); (9, 5); (8, 7); (8, 8); (6, 6); (5, 5); (2, 5); (1, 5);
         (9, 6); (9, 7); (6, 8); (6, 9); (4, 8); (2, 8); (1, 8); (1, 9);
         (1, 4); (0, 12); (4, 12); (4, 5); (5, 8); (5, 13); (6, 11); (2, 6);
         (9, 4); (5, 11); (6, 12); (5, 6); (0, 5); (9, 8); (6, 14); (4, 6);
         (2, 4); (1, 7); (16, 3); (30, 4); (18, 3); (16, 4) |] );
    ( "laplacian",
      178.0,
      [| (1, 0); (1, 1); (0, 3); (0, 9); (2, 9); (1, 4); (1, 2); (0, 5);
         (4, 4); (2, 4); (2, 5); (2, 8); (4, 8); (1, 8); (1, 7); (0, 7);
         (4, 3); (6, 5); (2, 3); (5, 5); (20, 3); (10, 0); (24, 3); (20, 0);
         (0, 1); (1, 10); (2, 10); (1, 5); (1, 6); (0, 4); (1, 9); (4, 7);
         (0, 12); (0, 6); (2, 0); (5, 4) |] ) ]

let test_place_golden () =
  let v = Apex.Variants.baseline () in
  List.iter
    (fun (name, wirelength, loc) ->
      let app = Apps.by_name name in
      let mapped = Cover.map_app ~rules:v.Apex.Variants.rules app.graph in
      let p = Place.place ~effort:1 (Fabric.create ()) mapped in
      check
        Alcotest.(list (pair int int))
        (name ^ " loc") (Array.to_list loc) (Array.to_list p.loc);
      check (Alcotest.float 0.0) (name ^ " wirelength") wirelength
        p.wirelength;
      (* the annealer's cached per-net HPWL sums to a full recount *)
      check (Alcotest.float 0.0) (name ^ " recounted") wirelength
        (Place.hpwl p mapped))
    golden_placements

(* --- routing --- *)

let test_route_legal () =
  let _, _, _, _, _, _, routes, _, _ = gaussian_flow () in
  check int "no overuse" 0 routes.overuse;
  Alcotest.(check bool) "has nets" true (List.length routes.nets > 10);
  Alcotest.(check bool) "hops counted" true (routes.word_hops > 0)

let test_route_trees_connect_sinks () =
  let _, _, _, _, _, _, routes, _, _ = gaussian_flow () in
  List.iter
    (fun (n : Route.net) ->
      (* every sink must be reachable from the source through tree hops *)
      let reached = Hashtbl.create 16 in
      Hashtbl.replace reached n.source ();
      let rec grow () =
        let changed = ref false in
        List.iter
          (fun (a, b) ->
            if Hashtbl.mem reached a && not (Hashtbl.mem reached b) then begin
              Hashtbl.replace reached b ();
              changed := true
            end)
          n.tree;
        if !changed then grow ()
      in
      grow ();
      List.iter
        (fun s ->
          if not (Hashtbl.mem reached s) then
            Alcotest.failf "net %s: sink unreachable" n.name)
        n.sinks)
    routes.nets

let test_track_assignment_legal () =
  let _, _, _, _, _, _, routes, _, _ = gaussian_flow () in
  let capacity = Apex_models.Interconnect.default.word_tracks in
  (* tracks within capacity and no two nets share a (boundary, track) *)
  let used = Hashtbl.create 256 in
  List.iter
    (fun (n : Route.net) ->
      List.iter
        (fun (hop, t) ->
          Alcotest.(check bool) "track within capacity" true
            (t >= 0 && t < capacity);
          if Hashtbl.mem used (hop, t) then
            Alcotest.fail "two nets on one track"
          else Hashtbl.replace used (hop, t) ())
        n.tracks)
    routes.nets

let test_routing_only_tiles () =
  let _, _, _, _, _, placement, routes, _, _ = gaussian_flow () in
  let r = Route.routing_only_tiles routes placement in
  let pe_tiles = Array.to_list placement.loc in
  let recount =
    List.length
      (List.filter
         (fun (x, y) ->
           Fabric.in_bounds placement.fabric ~x ~y
           && not (List.mem (x, y) pe_tiles))
         (Route.tiles_touched routes))
  in
  check int "recount from tiles_touched and loc" recount r;
  Alcotest.(check bool) "gaussian forwards through some tiles" true (r > 0)

(* The routing graph is the fabric plus the IO columns x = -1 and
   x = width, over the fabric's rows only: no hop of any routed tree
   leaves it *)
let test_route_stays_on_grid () =
  let v = Apex.Variants.baseline () in
  List.iter
    (fun (app : Apps.t) ->
      let mapped = Cover.map_app ~rules:v.Apex.Variants.rules app.graph in
      (* the flow's sizing: 32x16, rows doubled until the PEs fit *)
      let rec fit height =
        let f = Fabric.create ~height () in
        if Fabric.n_pe_tiles f >= Cover.n_pes mapped then f else fit (height * 2)
      in
      let fabric = fit 16 in
      let routes = Route.route (Place.place ~effort:0 fabric mapped) mapped in
      let on_grid (x, y) =
        x >= -1 && x <= fabric.width && y >= 0 && y < fabric.height
      in
      List.iter
        (fun (n : Route.net) ->
          List.iter
            (fun (a, b) ->
              if not (on_grid a && on_grid b) then
                Alcotest.failf "%s net %s: hop (%d,%d)->(%d,%d) off the grid"
                  app.name n.name (fst a) (snd a) (fst b) (snd b))
            n.tree)
        routes.nets)
    (Apps.evaluated () @ Apps.unseen ())

(* Golden congested routing: one word track per boundary on a small
   fabric, so negotiation runs many rip-up/reroute rounds.  The digest
   covers every field of [Route.t] (trees, tracks, iterations, overuse,
   word_hops), so any change to the search or to negotiation that is
   not bit-identical shows up here. *)
let route_digest (r : Route.t) =
  let b = Buffer.create 4096 in
  let pt (x, y) = Printf.bprintf b "(%d,%d)" x y in
  List.iter
    (fun (n : Route.net) ->
      Printf.bprintf b "%s:%s:" n.name
        (match n.width with Op.Word -> "w" | Op.Bit -> "b");
      pt n.source;
      List.iter pt n.sinks;
      Buffer.add_char b ':';
      List.iter (fun (a, c) -> pt a; pt c) n.tree;
      Buffer.add_char b ':';
      List.iter (fun ((a, c), t) -> pt a; pt c; Printf.bprintf b "%d" t) n.tracks;
      Buffer.add_char b ';')
    r.nets;
  Printf.bprintf b "|%d|%d|%d|%d" r.word_hops r.bit_hops r.overuse r.iterations;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_congested =
  [ ("gaussian", 12, 12, 30, 23, 276, "7dbc5bf04ac234570abafbc18736ab21");
    ("laplacian", 12, 12, 30, 9, 193, "fb41e6b1b22e33d3e2e56c2aa706d6eb");
    ("laplacian", 16, 16, 28, 0, 170, "c76f5ab5392fcfdfd29de6b57d0bc9d8") ]

let test_route_golden_congested () =
  let v = Apex.Variants.baseline () in
  let params = { Apex_models.Interconnect.default with word_tracks = 1 } in
  List.iter
    (fun (name, width, height, iterations, overuse, word_hops, digest) ->
      let what = Printf.sprintf "%s %dx%d" name width height in
      let app = Apps.by_name name in
      let mapped = Cover.map_app ~rules:v.Apex.Variants.rules app.graph in
      let fabric = Fabric.create ~width ~height ~params () in
      let r = Route.route (Place.place ~effort:1 fabric mapped) mapped in
      check int (what ^ " iterations") iterations r.iterations;
      check int (what ^ " overuse") overuse r.overuse;
      check int (what ^ " word hops") word_hops r.word_hops;
      check Alcotest.string (what ^ " digest") digest (route_digest r))
    golden_congested

(* --- bitstream --- *)

let test_pack_unpack_roundtrip () =
  let dp = Library.baseline () in
  let spec = Spec.of_datapath ~name:"baseline" dp in
  let st = Random.State.make [| 21 |] in
  for _ = 1 to 50 do
    let instr =
      List.map
        (fun (f : Spec.field) -> (f.name, Random.State.int st (max 1 f.choices)))
        spec.fields
    in
    let instr' = Bitstream.unpack spec (Bitstream.pack spec instr) in
    List.iter
      (fun (name, v) ->
        check int ("field " ^ name) v
          (Option.value ~default:0 (List.assoc_opt name instr')))
      instr
  done

let test_bitstream_covers_instances () =
  let _, _, spec, mapped, _, placement, _, _, bitstream = gaussian_flow () in
  Array.iteri
    (fun i (_ : Cover.instance) ->
      match Bitstream.instr_at bitstream spec placement.loc.(i) with
      | Some _ -> ()
      | None -> Alcotest.failf "no config words for instance %d" i)
    mapped.instances;
  Alcotest.(check bool) "bits counted" true (bitstream.total_bits > 0)

(* --- fabric simulation vs golden model --- *)

let random_frame st g =
  Interp.random_env st g

let test_sim_matches_golden () =
  let app, _, spec, mapped, _, placement, _, plan, bitstream = gaussian_flow () in
  let st = Random.State.make [| 123 |] in
  let frames = List.init 8 (fun _ -> random_frame st app.graph) in
  let report =
    Sim.run ~spec ~mapped ~plan ~bitstream ~placement ~frames
  in
  check int "one output set per frame" (List.length frames)
    (List.length report.outputs);
  List.iteri
    (fun i frame ->
      let golden = List.sort compare (Interp.run app.graph frame) in
      let actual = List.sort compare (List.nth report.outputs i) in
      if golden <> actual then
        Alcotest.failf "frame %d: fabric simulation diverges from golden" i)
    frames

let test_sim_pipelined_pe_latency () =
  (* same check with a 3-cycle PE pipeline: balancing must still line up *)
  let app, _, spec, mapped, _, placement, _, _, bitstream = gaussian_flow () in
  let plan = App_pipeline.balance mapped ~pe_latency:3 in
  let st = Random.State.make [| 321 |] in
  let frames = List.init 6 (fun _ -> random_frame st app.graph) in
  let report = Sim.run ~spec ~mapped ~plan ~bitstream ~placement ~frames in
  List.iteri
    (fun i frame ->
      let golden = List.sort compare (Interp.run app.graph frame) in
      let actual = List.sort compare (List.nth report.outputs i) in
      if golden <> actual then
        Alcotest.failf "frame %d: pipelined simulation diverges" i)
    frames

let test_sim_unsharp_end_to_end () =
  let app = Apps.by_name "unsharp" in
  let dp = Library.baseline () in
  let spec = Spec.of_datapath ~name:"baseline" dp in
  let rules = Rules.single_op_rules dp in
  let mapped = Cover.map_app ~rules app.graph in
  let fabric = Fabric.create () in
  let placement = Place.place ~effort:0 fabric mapped in
  let routes = Route.route placement mapped in
  let plan = App_pipeline.balance mapped ~pe_latency:2 in
  let bitstream = Bitstream.generate spec placement mapped routes in
  let st = Random.State.make [| 55 |] in
  let frames = List.init 4 (fun _ -> random_frame st app.graph) in
  let report = Sim.run ~spec ~mapped ~plan ~bitstream ~placement ~frames in
  List.iteri
    (fun i frame ->
      let golden = List.sort compare (Interp.run app.graph frame) in
      let actual = List.sort compare (List.nth report.outputs i) in
      if golden <> actual then Alcotest.failf "frame %d diverges" i)
    frames


(* Every mapped pair of the suite — the 12 apps under PE Base, their
   own specialized PE, PE IP and PE ML — through the DSE back end, its
   bitstream and the fabric simulator, against the golden interpreter
   on seeded frames.  A PE input no connection drives reads 0, so an
   output no consumer reads cannot fail the simulation. *)
let test_sim_every_mapped_pair () =
  let store_was = Apex_exec.Store.enabled () in
  Apex_exec.Store.set_enabled false;
  Fun.protect ~finally:(fun () -> Apex_exec.Store.set_enabled store_was)
  @@ fun () ->
  let st = Random.State.make [| 2023 |] in
  List.iter
    (fun (app : Apps.t) ->
      List.iter
        (fun variant ->
          let v = Apex.Dse.variant_for variant in
          let _, { Apex.Metrics.cover; placement; routes; _ }, plan =
            Apex.Metrics.post_pipelining v app
          in
          let spec = Spec.of_datapath ~name:v.name v.dp in
          let bitstream = Bitstream.generate spec placement cover routes in
          let frames = List.init 3 (fun _ -> random_frame st app.graph) in
          let report =
            Sim.run ~spec ~mapped:cover ~plan ~bitstream ~placement ~frames
          in
          List.iteri
            (fun i frame ->
              if
                List.sort compare (Interp.run app.graph frame)
                <> List.sort compare (List.nth report.outputs i)
              then
                Alcotest.failf "%s under %s: frame %d diverges" app.name
                  variant i)
            frames)
        [ "base"; "spec:" ^ app.name; "ip"; "ml" ])
    (Apps.evaluated () @ Apps.unseen () @ Apps.extended ())

(* --- top-level fabric Verilog --- *)

let test_fabric_verilog () =
  let dp = Library.baseline () in
  let spec = Spec.of_datapath ~name:"baseline" dp in
  let fabric = Fabric.create ~width:4 ~height:4 () in
  let v = Apex_cgra.Verilog_top.emit fabric spec in
  let contains s =
    let re = Str.regexp_string s in
    try
      ignore (Str.search_forward re v 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "top module" true (contains "module cgra_4x4");
  Alcotest.(check bool) "switch box" true (contains "module switch_box");
  Alcotest.(check bool) "mem tile" true (contains "module mem_tile");
  Alcotest.(check bool) "pe module" true (contains "module pe_baseline");
  Alcotest.(check bool) "scan chain" true (contains "cfg_chain");
  (* balanced module/endmodule *)
  let count s =
    let re = Str.regexp_string s in
    let rec go pos acc =
      match Str.search_forward re v pos with
      | p -> go (p + 1) (acc + 1)
      | exception Not_found -> acc
    in
    go 0 0
  in
  Alcotest.(check int) "modules balanced" (count "module ") (count "endmodule" + count "module pe_" + count "module switch_box" + count "module mem_tile" + count "module cgra_" - 4)

let test_fabric_verilog_instantiates_all_tiles () =
  let dp = Library.baseline () in
  let spec = Spec.of_datapath ~name:"baseline" dp in
  let fabric = Fabric.create ~width:8 ~height:2 () in
  let v = Apex_cgra.Verilog_top.emit fabric spec in
  let count s =
    let re = Str.regexp_string s in
    let rec go pos acc =
      match Str.search_forward re v pos with
      | p -> go (p + 1) (acc + 1)
      | exception Not_found -> acc
    in
    go 0 0
  in
  Alcotest.(check int) "one SB per tile" (8 * 2) (count "switch_box sb_");
  Alcotest.(check int) "PE instances" (Fabric.n_pe_tiles fabric) (count "pe_baseline pe_");
  Alcotest.(check int) "MEM instances" (Fabric.n_mem_tiles fabric) (count "mem_tile mem_")

(* The fabric embeds the PE the standalone RTL emits: for a PE that
   pipelines (PE IP has two stages), registered at the stages the PE
   plan assigns, so the hardware latency is the [pe_latency] the
   application plan balances for. *)
let test_fabric_embeds_pipelined_pe () =
  let v = Apex.Dse.variant_for "ip" in
  let dp = v.Apex.Variants.dp in
  let spec = Spec.of_datapath ~name:v.name dp in
  let plan = Apex_pipelining.Pe_pipeline.plan dp in
  Alcotest.(check bool) "PE IP pipelines" true (plan.stages > 1);
  let stages =
    Apex_pipelining.Pe_pipeline.assign_stages dp ~period_ps:plan.period_ps
      ~stages:plan.stages
  in
  Alcotest.(check bool) "stages assigned" true (Option.is_some stages);
  let pe = Apex_peak.Verilog.emit ?stages spec in
  let top = Apex_cgra.Verilog_top.emit (Fabric.create ~width:4 ~height:4 ()) spec in
  (* the PE module follows the one-line fabric header *)
  let start = String.index top '\n' + 1 in
  let len = min (String.length pe) (String.length top - start) in
  Alcotest.(check string) "embedded PE module" pe (String.sub top start len)

let () =
  Alcotest.run "cgra"
    [ ( "fabric",
        [ Alcotest.test_case "structure" `Quick test_fabric_structure;
          Alcotest.test_case "io coords" `Quick test_fabric_io ] );
      ( "place",
        [ Alcotest.test_case "distinct PE tiles" `Quick test_place_distinct_tiles;
          Alcotest.test_case "annealing improves" `Quick test_place_improves_wirelength;
          Alcotest.test_case "does not fit" `Quick test_place_does_not_fit;
          Alcotest.test_case "deterministic" `Quick test_place_deterministic;
          Alcotest.test_case "golden under PE Base" `Quick test_place_golden ] );
      ( "route",
        [ Alcotest.test_case "legal" `Quick test_route_legal;
          Alcotest.test_case "trees connect" `Quick test_route_trees_connect_sinks;
          Alcotest.test_case "track assignment" `Quick test_track_assignment_legal;
          Alcotest.test_case "routing-only tiles" `Quick test_routing_only_tiles;
          Alcotest.test_case "stays on the grid" `Quick test_route_stays_on_grid;
          Alcotest.test_case "golden congested" `Quick test_route_golden_congested ] );
      ( "bitstream",
        [ Alcotest.test_case "pack/unpack roundtrip" `Quick test_pack_unpack_roundtrip;
          Alcotest.test_case "covers instances" `Quick test_bitstream_covers_instances ] );
      ( "sim",
        [ Alcotest.test_case "gaussian matches golden" `Quick test_sim_matches_golden;
          Alcotest.test_case "pipelined PEs" `Quick test_sim_pipelined_pe_latency;
          Alcotest.test_case "unsharp end to end" `Quick test_sim_unsharp_end_to_end;
          Alcotest.test_case "every mapped pair" `Quick test_sim_every_mapped_pair ] );
      ( "verilog-top",
        [ Alcotest.test_case "structure" `Quick test_fabric_verilog;
          Alcotest.test_case "tile instantiation" `Quick
            test_fabric_verilog_instantiates_all_tiles;
          Alcotest.test_case "embeds the pipelined PE" `Quick
            test_fabric_embeds_pipelined_pe ] ) ]
