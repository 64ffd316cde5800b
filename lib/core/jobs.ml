module Apps = Apex_halide.Apps
module Json = Apex_telemetry.Json

type t =
  | Dse of { apps : string list; variants : string list }
  | Analyze of { apps : string list }
  | Configs of { apps : string list }
  | Lint of { apps : string list }
  | Map of { app : string; variant : string }
  | Mine of { app : string; top : int }
  | Sleep of { seconds : float }

let kind = function
  | Dse _ -> "dse"
  | Analyze _ -> "analyze"
  | Configs _ -> "configspace"
  | Lint _ -> "lint"
  | Map _ -> "map"
  | Mine _ -> "mine"
  | Sleep _ -> "sleep"

(* --- wire spec --- *)

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let to_json t =
  let fields =
    match t with
    | Dse { apps; variants } ->
        [ ("apps", strings apps); ("variants", strings variants) ]
    | Analyze { apps } | Configs { apps } | Lint { apps } ->
        [ ("apps", strings apps) ]
    | Map { app; variant } ->
        [ ("app", Json.String app); ("variant", Json.String variant) ]
    | Mine { app; top } -> [ ("app", Json.String app); ("top", Json.Int top) ]
    | Sleep { seconds } -> [ ("seconds", Json.Float seconds) ]
  in
  Json.Obj (("kind", Json.String (kind t)) :: fields)

let bad fmt = Printf.ksprintf invalid_arg fmt

let string_list j field =
  match Json.member field j with
  | None -> []
  | Some (Json.List l) ->
      List.map
        (function
          | Json.String s -> s
          | _ -> bad "job: %S must be a list of strings" field)
        l
  | Some _ -> bad "job: %S must be a list of strings" field

let string_field j field =
  match Json.member field j with
  | Some (Json.String s) -> s
  | _ -> bad "job: missing string field %S" field

(* range-checked here, so a served mine is rejected before admission *)
let mine ~app ~top =
  if top < 0 then bad "mine: top %d is negative" top;
  Mine { app; top }

let of_json j =
  match Json.member "kind" j with
  | Some (Json.String "dse") ->
      Dse { apps = string_list j "apps"; variants = string_list j "variants" }
  | Some (Json.String "analyze") -> Analyze { apps = string_list j "apps" }
  | Some (Json.String "configspace") -> Configs { apps = string_list j "apps" }
  | Some (Json.String "lint") -> Lint { apps = string_list j "apps" }
  | Some (Json.String "map") ->
      Map { app = string_field j "app"; variant = string_field j "variant" }
  | Some (Json.String "mine") ->
      mine ~app:(string_field j "app")
        ~top:
          (match Json.member "top" j with
          | None -> 10
          | Some v -> (
              match Json.to_int_opt v with
              | Some n -> n
              | None -> bad "job: \"top\" must be an integer"))
  | Some (Json.String "sleep") ->
      let seconds =
        match Option.bind (Json.member "seconds" j) Json.to_number_opt with
        | Some s -> s
        | None -> bad "job: missing number field \"seconds\""
      in
      (* range-checked here, so a served sleep is rejected before
         admission (and never reaches the journal) *)
      if not (Float.is_finite seconds && seconds >= 0.0 && seconds <= 3600.0)
      then bad "sleep: %g seconds out of range [0, 3600]" seconds;
      Sleep { seconds }
  | Some (Json.String k) -> bad "job: unknown kind %S" k
  | _ -> bad "job: missing string field \"kind\""

(* --- execution --- *)

type result =
  | Dse_rows of ((string * Variants.t * Apps.t) * Dse.pair_result) list
  | Analyze_reports of Analyze_run.app_report list
  | Configs_reports of Configspace_run.app_report list
  | Lint_report of Apex_lint.Engine.report
  | Mapped of {
      app : Apps.t;
      variant : Variants.t;
      post : Metrics.post_mapping;
      cover : Apex_mapper.Cover.t;
    }
  | Mined of {
      app : Apps.t;
      n_patterns : int;
      top : int;
      ranked : Apex_mining.Analysis.ranked list;
    }
  | Slept of float

let app_by_name name =
  match Apps.by_name name with
  | a -> a
  | exception Not_found -> bad "unknown application %S (see `apex apps`)" name

let resolve_apps ~all = function
  | [] -> all ()
  | names -> List.map app_by_name names

let dse_specs ~apps ~variants =
  let specs_for (a : Apps.t) =
    match variants with [] -> [ "base"; "spec:" ^ a.Apps.name ] | vs -> vs
  in
  List.concat_map
    (fun (a : Apps.t) -> List.map (fun spec -> (spec, a)) (specs_for a))
    apps

let dse_pairs ~apps ~variants =
  List.map
    (fun (spec, a) -> (spec, Dse.variant_for spec, a))
    (dse_specs ~apps ~variants)

let execute = function
  | Dse { apps; variants } ->
      let apps = resolve_apps ~all:Apps.evaluated apps in
      (* each variant is built on this domain while the pairs before
         it evaluate *)
      let specs = dse_specs ~apps ~variants in
      let rows =
        Dse.evaluate_built
          ~build:(fun (spec, a) -> (Dse.variant_for spec, a))
          specs
      in
      Dse_rows
        (List.map2 (fun (spec, _) ((v, a), r) -> ((spec, v, a), r)) specs rows)
  | Analyze { apps } ->
      Analyze_reports
        (Analyze_run.run (resolve_apps ~all:Lint_run.all_apps apps))
  | Configs { apps } ->
      Configs_reports
        (Configspace_run.run (resolve_apps ~all:Lint_run.all_apps apps))
  | Lint { apps } ->
      Lint_report (Lint_run.run (resolve_apps ~all:Lint_run.all_apps apps))
  | Map { app; variant } ->
      let app = app_by_name app in
      let variant = Dse.variant_for variant in
      let post, cover = Dse.mapping variant app in
      Mapped { app; variant; post; cover }
  | Mine { app; top } ->
      let app = app_by_name app in
      let all = Dse.analysis_of app in
      Mined
        { app;
          n_patterns = List.length all;
          top;
          ranked = List.filteri (fun i _ -> i < top) all }
  | Sleep { seconds } ->
      (* cancellable wait: short naps with a guard tick between them, so
         a deadline or server shutdown interrupts the hold promptly *)
      let t0 = Unix.gettimeofday () in
      let rec nap () =
        Apex_guard.tick ();
        let left = seconds -. (Unix.gettimeofday () -. t0) in
        if left > 0.0 then begin
          Unix.sleepf (Float.min 0.01 left);
          nap ()
        end
      in
      nap ();
      Slept seconds

let dse_row_json ((spec, (v : Variants.t), (a : Apps.t)), r) =
  let fields =
    [ ("app", Json.String a.Apps.name);
      ("variant", Json.String v.name);
      ("spec", Json.String spec);
      ("status", Json.String (Dse.pair_status r)) ]
  in
  let fields =
    match Dse.mapped_opt r with
    | None -> fields
    | Some (pp : Metrics.post_pipelining) ->
        fields
        @ [ ("n_pes", Json.Int pp.pnr.pm.n_pes);
            ("cycles_per_run", Json.Int pp.cycles_per_run);
            ("pe_stages", Json.Int pp.pe_stages);
            ("period_ps", Json.Float pp.period_ps);
            ("total_area", Json.Float pp.pnr.total_area);
            ("perf_per_mm2", Json.Float pp.perf_per_mm2) ]
  in
  Json.Obj fields

let results_json = function
  | Dse_rows rows -> Json.List (List.map dse_row_json rows)
  | Analyze_reports reports -> Analyze_run.to_json reports
  | Configs_reports reports -> Configspace_run.to_json reports
  | Lint_report report -> Apex_lint.Engine.report_to_json report
  | Mapped { app; variant; post = pm; _ } ->
      Json.Obj
        [ ("app", Json.String app.Apps.name);
          ("variant", Json.String variant.name);
          ("n_pes", Json.Int pm.n_pes);
          ("pe_area", Json.Float pm.pe_area);
          ("total_pe_area", Json.Float pm.total_pe_area);
          ("pe_energy_per_output", Json.Float pm.pe_energy_per_output);
          ("utilization", Json.Float pm.utilization) ]
  | Mined { app; n_patterns; ranked; _ } ->
      let rows =
        List.map
          (fun (r : Apex_mining.Analysis.ranked) ->
            Json.Obj
              [ ("pattern", Json.String (Apex_mining.Pattern.code r.pattern));
                ("support", Json.Int r.support);
                ("mis_size", Json.Int r.mis_size) ])
          ranked
      in
      Json.Obj
        [ ("app", Json.String app.Apps.name);
          ("n_patterns", Json.Int n_patterns);
          ("top", Json.List rows) ]
  | Slept seconds -> Json.Obj [ ("slept_s", Json.Float seconds) ]

let run job = results_json (execute job)
