module Apps = Apex_halide.Apps
module Json = Apex_telemetry.Json
module Registry = Apex_telemetry.Registry
module Span = Apex_telemetry.Span

type area = Mining | Merging | Smt | Configspace | Dse

let area_name = function
  | Mining -> "mining"
  | Merging -> "merging"
  | Smt -> "smt"
  | Configspace -> "configspace"
  | Dse -> "dse"

let areas =
  [ ("mining", Mining); ("merging", Merging); ("smt", Smt);
    ("configspace", Configspace); ("dse", Dse) ]

let file_of_name name = "BENCH_" ^ name ^ ".json"

type t = {
  area : string;
  counters : (string * int) list;
  seconds : float;
  extra_bands : (string * float) list;
  info : (string * Json.t) list;
}

let schema_version = "apex.bench.snapshot/1"

(* Wall clock cannot be committed exactly, so the snapshot coarsens it
   into geometric bands: band 0 is "at most [band_unit_ms]", band k is
   "about [band_unit_ms * band_ratio^k]".  With ratio 4 a timing must
   double (move past the sqrt-4 band edge) before its band can change,
   which keeps the committed files stable across machines of roughly
   similar speed while still catching order-of-magnitude regressions. *)
let band_unit_ms = 1.0

let band_ratio = 4.0

let band_of_seconds t =
  let ms = 1e3 *. t in
  if ms <= band_unit_ms then 0
  else
    max 0
      (int_of_float
         (Float.round (Float.log (ms /. band_unit_ms) /. Float.log band_ratio)))

(* exec.* counters (pool batches, cache hits) vary with --jobs and the
   on-disk store; everything else in the registry is covered by the
   pool's bit-identical-counters contract *)
let keep_counter (k, _) = not (String.starts_with ~prefix:"exec." k)

let measure area phase =
  let name = area_name area in
  let was_enabled = Registry.is_enabled () in
  Registry.enable ();
  Registry.reset ();
  Span.with_ ("snapshot:" ^ name) phase;
  let snap = Registry.snapshot () in
  let seconds =
    match
      Hashtbl.find_opt snap.Registry.spans.Registry.children ("snapshot:" ^ name)
    with
    | Some sp -> sp.Registry.total_s
    | None -> 0.0
  in
  if not was_enabled then Registry.disable ();
  { area = name;
    counters = List.filter keep_counter snap.Registry.counters;
    seconds;
    extra_bands = [];
    info = [] }

(* shared prerequisites, built OUTSIDE the measured window so the
   in-memory memo caches they warm (Dse.analysis_of) are in the
   same state no matter how many snapshots ran before in this process *)

let camera () = Apps.by_name "camera"

let top_patterns ?(n = 3) app =
  List.filteri (fun i _ -> i < n)
    (Variants.interesting_patterns (Dse.analysis_of app))

let seed_datapath (app : Apps.t) =
  Apex_peak.Library.subset ~ops:(Apex_peak.Library.ops_of_graph app.graph)

let merged_datapath app patterns =
  List.fold_left
    (fun dp p -> fst (Apex_merging.Merge.merge dp p))
    (seed_datapath app) patterns

let run area =
  (* the artifact store would turn the second run's SMT/DSE phases into
     cache replays with different counters; snapshots always measure
     the cold computation *)
  let store_was = Apex_exec.Store.enabled () in
  Apex_exec.Store.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Apex_exec.Store.set_enabled store_was)
    (fun () ->
      match area with
      | Mining ->
          let graph = (camera ()).Apps.graph in
          measure Mining (fun () ->
              ignore (Apex_mining.Analysis.analyze graph))
      | Merging ->
          let app = camera () in
          let patterns = top_patterns app in
          let seed = seed_datapath app in
          measure Merging (fun () ->
              ignore
                (List.fold_left
                   (fun dp p -> fst (Apex_merging.Merge.merge dp p))
                   seed patterns))
      | Smt ->
          let app = camera () in
          let patterns = top_patterns app in
          let dp = merged_datapath app patterns in
          measure Smt (fun () ->
              ignore (Apex_mapper.Rules.rule_set dp ~patterns))
      | Configspace ->
          let app = camera () in
          let patterns = top_patterns app in
          let dp = merged_datapath app patterns in
          measure Configspace (fun () ->
              ignore (Apex_verif.Configspace.analyze ~label:"snapshot" dp))
      | Dse ->
          let app = camera () in
          let patterns = top_patterns app in
          let dp = merged_datapath app patterns in
          let rules = Apex_mapper.Rules.rule_set dp ~patterns in
          let variant = Variants.v "snapshot" dp patterns rules in
          let mappable =
            List.filter
              (fun (a : Apps.t) ->
                match Apex_mapper.Cover.map_app ~rules a.graph with
                | _ -> true
                | exception Apex_mapper.Cover.Unmappable _ -> false)
              (Apps.evaluated ())
          in
          let pairs = List.map (fun a -> (variant, a)) mappable in
          measure Dse (fun () ->
              (* materialize the width-aware PE area as an exact integer
                 counter (0.1 um^2 units) so snapshot diffs surface area
                 regressions, not just time bands *)
              Apex_telemetry.Counter.add "dse.pe_area_um2_x10"
                (int_of_float ((Apex_peak.Cost.pe_area dp *. 10.0) +. 0.5));
              ignore (Dse.evaluate_pairs pairs)))

let to_json t =
  Json.Obj
    ([ ("schema", Json.String schema_version);
       ("area", Json.String t.area);
       ("band_unit_ms", Json.Float band_unit_ms);
       ("band_ratio", Json.Float band_ratio);
       ( "counters",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
       ( "time_bands",
         Json.Obj
           (("total", Json.Int (band_of_seconds t.seconds))
           :: List.map
                (fun (k, s) -> (k, Json.Int (band_of_seconds s)))
                t.extra_bands) ) ]
    (* raw measurements too volatile to gate (latency ratios, exact
       milliseconds) ride along unbanded; [diff] never reads them *)
    @ (if t.info = [] then [] else [ ("info", Json.Obj t.info) ]))

let write ~dir t =
  let path = Filename.concat dir (file_of_name t.area) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json t)));
  path

(* --- the regression gate --- *)

let diff ?(tolerance = 1) old_j new_j =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let str j k =
    match Json.member k j with Some (Json.String s) -> Some s | _ -> None
  in
  (match (str old_j "schema", str new_j "schema") with
  | Some a, Some b when a = b ->
      if a <> schema_version then
        err "unknown snapshot schema %S (expected %S)" a schema_version
  | a, b ->
      err "schema mismatch: old=%s new=%s"
        (Option.value a ~default:"<missing>")
        (Option.value b ~default:"<missing>"))
  ;
  (match (str old_j "area", str new_j "area") with
  | Some a, Some b when a = b -> ()
  | a, b ->
      err "area mismatch: old=%s new=%s"
        (Option.value a ~default:"<missing>")
        (Option.value b ~default:"<missing>"))
  ;
  let int_fields j section =
    match Json.member section j with
    | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) ->
            match Json.to_int_opt v with Some i -> Some (k, i) | None -> None)
          fields
    | _ -> []
  in
  let old_c = int_fields old_j "counters" in
  let new_c = int_fields new_j "counters" in
  (* exact in both directions: a counter that vanished (or appeared) is
     drift just as much as one that changed value *)
  List.iter
    (fun (k, ov) ->
      match List.assoc_opt k new_c with
      | Some nv when nv = ov -> ()
      | Some nv -> err "counter %s: %d -> %d" k ov nv
      | None -> err "counter %s: %d -> <missing>" k ov)
    old_c;
  List.iter
    (fun (k, nv) ->
      if not (List.mem_assoc k old_c) then
        err "counter %s: <missing> -> %d" k nv)
    new_c;
  let old_b = int_fields old_j "time_bands" in
  let new_b = int_fields new_j "time_bands" in
  List.iter
    (fun (k, ov) ->
      match List.assoc_opt k new_b with
      | Some nv when abs (nv - ov) <= tolerance -> ()
      | Some nv ->
          err "time band %s: %d -> %d (tolerance %d)" k ov nv tolerance
      | None -> err "time band %s: %d -> <missing>" k ov)
    old_b;
  List.iter
    (fun (k, nv) ->
      if not (List.mem_assoc k old_b) then
        err "time band %s: <missing> -> %d" k nv)
    new_b;
  List.rev !errs
