(* Exporters for registry snapshots: a human-readable span tree and
   counter table via Format, and a stable JSON report (schema
   "apex.telemetry/1") for --trace=FILE and `apex profile`. *)

let schema_version = "apex.telemetry/1"

(* --- human-readable --- *)

let ms s = s *. 1e3

let pp_span_tree ppf (snap : Registry.snapshot) =
  let rec pp_node indent parent_total (sp : Registry.span) =
    let pct =
      if parent_total > 1e-12 then 100.0 *. sp.total_s /. parent_total
      else 0.0
    in
    Format.fprintf ppf "%s%-*s %9.2f ms" indent
      (max 1 (36 - String.length indent))
      (if sp.count > 1 then Printf.sprintf "%s ×%d" sp.name sp.count
       else sp.name)
      (ms sp.total_s);
    if indent <> "" then Format.fprintf ppf "  %5.1f%%" pct;
    Format.fprintf ppf "@.";
    List.iter (pp_node (indent ^ "  ") sp.total_s)
      (Registry.children_in_order sp);
  in
  Format.fprintf ppf "span tree (wall clock):@.";
  pp_node "" snap.spans.total_s snap.spans

(* per-phase GC accounting: one row per top-level span, in mega-words
   so camera-pipeline-sized runs stay readable *)
let pp_gc_table ppf (snap : Registry.snapshot) =
  let phases = Registry.children_in_order snap.spans in
  if phases <> [] then begin
    Format.fprintf ppf "gc (per phase):%33s%12s%9s@." "minor Mw" "major Mw"
      "compact";
    List.iter
      (fun (sp : Registry.span) ->
        Format.fprintf ppf "  %-38s %7.2f %11.2f %8d@." sp.name
          (sp.minor_words /. 1e6) (sp.major_words /. 1e6) sp.compactions)
      phases
  end

let pp_counter_table ppf (snap : Registry.snapshot) =
  if snap.counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-38s %12d@." name v)
      snap.counters
  end;
  if snap.gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-38s %12.2f@." name v)
      snap.gauges
  end;
  if snap.dists <> [] then begin
    Format.fprintf ppf "distributions:%39s%10s%10s%10s%10s%10s@." "n" "min"
      "mean" "p50" "p95" "max";
    List.iter
      (fun (name, (d : Registry.dist)) ->
        Format.fprintf ppf "  %-38s %11d%10.2f%10.2f%10.2f%10.2f%10.2f@." name
          d.n d.min_v
          (d.sum /. float_of_int (max 1 d.n))
          (Registry.percentile d 0.5) (Registry.percentile d 0.95) d.max_v)
      snap.dists
  end

let pp ppf snap =
  Format.fprintf ppf "%a@.%a%a" pp_span_tree snap pp_gc_table snap
    pp_counter_table snap

(* --- JSON --- *)

let rec span_json (sp : Registry.span) =
  Json.Obj
    [ ("name", Json.String sp.name);
      ("count", Json.Int sp.count);
      ("total_ms", Json.Float (ms sp.total_s));
      (* like total_ms, "gc" is a how-it-ran field: report-diff drops
         it when comparing runs for result equality *)
      ("gc",
       Json.Obj
         [ ("minor_words", Json.Float sp.minor_words);
           ("major_words", Json.Float sp.major_words);
           ("compactions", Json.Int sp.compactions) ]);
      ("children",
       Json.List (List.map span_json (Registry.children_in_order sp))) ]

let to_json ?results (snap : Registry.snapshot) =
  Json.Obj
    ((match results with
     | None -> []
     | Some r -> [ ("results", r) ])
    @ [ ("schema", Json.String schema_version);
        ("spans", span_json snap.spans);
      ("counters",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) snap.counters));
      ("gauges",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) snap.gauges));
        ("distributions",
         Json.Obj
           (List.map
              (fun (k, (d : Registry.dist)) ->
                ( k,
                  Json.Obj
                    [ ("count", Json.Int d.n);
                      ("sum", Json.Float d.sum);
                      ("min", Json.Float d.min_v);
                      ("max", Json.Float d.max_v);
                      ("mean", Json.Float (d.sum /. float_of_int (max 1 d.n)));
                      ("p50", Json.Float (Registry.percentile d 0.5));
                      ("p95", Json.Float (Registry.percentile d 0.95)) ] ))
              snap.dists)) ])

let write_file ?results path snap = Json.write_file path (to_json ?results snap)

(* Path of the JSON report requested by the environment, if any. *)
let env_trace_path () = Sys.getenv_opt "APEX_TRACE"
