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
  alloc_kw : (string * int) list;
}

let schema_version = "apex.bench.snapshot/2"

(* A layer's words reproduce across processes under [--jobs 1], but
   almost any edit to the code it runs moves them a little, and at
   larger widths a memo is paid for by whichever domain fills it
   first.  So [diff] bounds them instead of matching them exactly: each
   layer may move by the larger of a relative bound, for the big
   layers, and an absolute floor, for the small ones whose few
   kilowords of bookkeeping would otherwise dominate the ratio. *)
let alloc_ratio = 0.10

let alloc_floor_kw = 64

(* exec.* counters (pool batches, cache hits) vary with --jobs and the
   on-disk store; everything else in the registry is covered by the
   pool's bit-identical-counters contract *)
let keep_counter (k, _) = not (String.starts_with ~prefix:"exec." k)

(* Self minor words per span name (a span's words minus its children's,
   summed over every node of that name), in kilowords.  Span words are
   the span's own domain's, so under [--jobs 1] — every task on the
   calling domain — the self words of a phase's spans partition its
   allocation. *)
let self_kw (phase : Registry.span) =
  let tbl = Hashtbl.create 16 in
  let rec walk (sp : Registry.span) =
    let kids = Registry.children_in_order sp in
    let self =
      List.fold_left
        (fun w (k : Registry.span) -> w -. k.minor_words)
        sp.minor_words kids
    in
    Hashtbl.replace tbl sp.name
      (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl sp.name));
    List.iter walk kids
  in
  walk phase;
  Hashtbl.fold
    (fun name w acc -> (name, int_of_float (Float.round (w /. 1e3))) :: acc)
    tbl []
  |> List.sort compare

let measure area phase =
  let name = area_name area in
  let was_enabled = Registry.is_enabled () in
  Registry.enable ();
  Registry.reset ();
  Span.with_ ("snapshot:" ^ name) phase;
  let snap = Registry.snapshot () in
  if not was_enabled then Registry.disable ();
  { area = name;
    counters = List.filter keep_counter snap.Registry.counters;
    alloc_kw =
      List.concat_map self_kw (Registry.children_in_order snap.Registry.spans) }

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
                 regressions *)
              Apex_telemetry.Counter.add "dse.pe_area_um2_x10"
                (int_of_float ((Apex_peak.Cost.pe_area dp *. 10.0) +. 0.5));
              ignore (Dse.evaluate_pairs pairs)))

let to_json t =
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  Json.Obj
    [ ("schema", Json.String schema_version);
      ("area", Json.String t.area);
      ("counters", ints t.counters);
      ("alloc_kw", ints t.alloc_kw) ]

let write ~dir t =
  let path = Filename.concat dir (file_of_name t.area) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json t)));
  path

(* --- the regression gate --- *)

let diff old_j new_j =
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
  (* both sections are checked in both directions: a key that vanished
     (or appeared) is drift just as much as one that changed value *)
  let compare_section section ~what ~within =
    let old_s = int_fields old_j section in
    let new_s = int_fields new_j section in
    List.iter
      (fun (k, ov) ->
        match List.assoc_opt k new_s with
        | Some nv when within ov nv -> ()
        | Some nv -> err "%s %s: %d -> %d" what k ov nv
        | None -> err "%s %s: %d -> <missing>" what k ov)
      old_s;
    List.iter
      (fun (k, nv) ->
        if not (List.mem_assoc k old_s) then
          err "%s %s: <missing> -> %d" what k nv)
      new_s
  in
  compare_section "counters" ~what:"counter" ~within:( = );
  compare_section "alloc_kw" ~what:"alloc_kw" ~within:(fun ov nv ->
      let bound =
        max alloc_floor_kw
          (int_of_float (Float.ceil (alloc_ratio *. float_of_int (abs ov))))
      in
      abs (nv - ov) <= bound);
  List.rev !errs
