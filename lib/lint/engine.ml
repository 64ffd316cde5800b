module Json = Apex_telemetry.Json
module Counter = Apex_telemetry.Counter
module D = Diagnostic

type artifact =
  | Dfg of { label : string; graph : Apex_dfg.Graph.t }
  | Datapath of {
      label : string;
      dp : Apex_merging.Datapath.t;
      patterns : Apex_mining.Pattern.t list;
    }
  | Rule_set of {
      label : string;
      dp : Apex_merging.Datapath.t;
      rules : Apex_mapper.Rules.t list;
    }
  | Pe_plan of {
      label : string;
      dp : Apex_merging.Datapath.t;
      plan : Apex_pipelining.Pe_pipeline.plan;
    }
  | App_plan of {
      label : string;
      cover : Apex_mapper.Cover.t;
      plan : Apex_pipelining.App_pipeline.plan;
    }

let artifact_label = function
  | Dfg { label; _ }
  | Datapath { label; _ }
  | Rule_set { label; _ }
  | Pe_plan { label; _ }
  | App_plan { label; _ } -> label

(* the checkers that apply to each artifact kind, in run order *)
let checkers = function
  | Dfg { graph; _ } ->
      [ ("dfg", fun () -> Checks_dfg.run graph);
        ("analysis", fun () -> Checks_analysis.run graph);
        ("width", fun () -> Checks_width.run graph) ]
  | Datapath { dp; patterns; _ } ->
      [ ("datapath", fun () -> Checks_datapath.run ~patterns dp) ]
  | Rule_set { dp; rules; _ } ->
      [ ("rules", fun () -> Checks_rules.run ~dp rules) ]
  | Pe_plan { dp; plan; _ } ->
      [ ("pipeline", fun () -> Checks_pipeline.run_pe dp plan) ]
  | App_plan { cover; plan; _ } ->
      [ ("pipeline", fun () -> Checks_pipeline.run_app cover plan) ]

type finding = { artifact : string; checker : string; diag : Diagnostic.t }

type report = { findings : finding list; artifacts : int; checks : int }

let run artifacts =
  let checks = ref 0 in
  let findings = ref [] in
  List.iter
    (fun art ->
      let label = artifact_label art in
      List.iter
        (fun (checker, check) ->
          incr checks;
          List.iter
            (fun diag ->
              findings := { artifact = label; checker; diag } :: !findings)
            (check ()))
        (checkers art))
    artifacts;
  Counter.add "lint.checks_run" !checks;
  Counter.add "lint.violations" (List.length !findings);
  Counter.add "lint.errors"
    (List.length
       (List.filter (fun f -> f.diag.D.severity = D.Error) !findings));
  let findings =
    List.stable_sort
      (fun a b ->
        match D.compare a.diag b.diag with
        | 0 -> String.compare a.artifact b.artifact
        | c -> c)
      (List.rev !findings)
  in
  { findings; artifacts = List.length artifacts; checks = !checks }

let count r sev =
  List.length (List.filter (fun f -> f.diag.D.severity = sev) r.findings)

let errors r = count r D.Error

let warnings r = count r D.Warning

let pp_report ppf r =
  List.iter
    (fun f -> Format.fprintf ppf "%s: %a@." f.artifact D.pp f.diag)
    r.findings;
  let e = errors r and w = warnings r and n = count r D.Note in
  if e + w + n = 0 then
    Format.fprintf ppf "no violations (%d artifacts, %d checks)@." r.artifacts
      r.checks
  else
    Format.fprintf ppf
      "%d error%s, %d warning%s, %d note%s (%d artifacts, %d checks)@." e
      (if e = 1 then "" else "s")
      w
      (if w = 1 then "" else "s")
      n
      (if n = 1 then "" else "s")
      r.artifacts r.checks

let report_to_json r =
  Json.Obj
    [ ( "findings",
        Json.List
          (List.map
             (fun f ->
               match D.to_json f.diag with
               | Json.Obj fields ->
                   Json.Obj
                     (("artifact", Json.String f.artifact)
                     :: ("checker", Json.String f.checker)
                     :: fields)
               | j -> j)
             r.findings) );
      ( "summary",
        Json.Obj
          [ ("errors", Json.Int (errors r));
            ("warnings", Json.Int (warnings r));
            ("notes", Json.Int (count r D.Note));
            ("artifacts", Json.Int r.artifacts);
            ("checks", Json.Int r.checks) ] ) ]

let exit_code ~werror r =
  if errors r > 0 then 1 else if werror && warnings r > 0 then 1 else 0

(* --- code filters (--only / --except) --- *)

(* "APX110" matches itself; a trailing 'x' is a family wildcard:
   "APX11x" matches every same-length code starting "APX11". *)
let code_matches ~pat code =
  let n = String.length pat in
  if n > 0 && (pat.[n - 1] = 'x' || pat.[n - 1] = 'X') then
    String.length code = n
    && String.sub code 0 (n - 1) = String.sub pat 0 (n - 1)
  else String.equal pat code

let validate_code pat =
  if
    List.exists
      (fun (i : D.info) -> code_matches ~pat i.D.code_info)
      D.catalog
  then Ok ()
  else
    Error
      (Printf.sprintf
         "unknown lint code %S (see the invariant catalog in DESIGN.md)" pat)

let filter_report ?(only = []) ?(except = []) r =
  let keep code =
    (only = [] || List.exists (fun pat -> code_matches ~pat code) only)
    && not (List.exists (fun pat -> code_matches ~pat code) except)
  in
  { r with findings = List.filter (fun f -> keep f.diag.D.code) r.findings }
