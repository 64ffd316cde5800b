module Pattern = Apex_mining.Pattern
module Analysis = Apex_mining.Analysis
module Merge = Apex_merging.Merge
module D = Apex_merging.Datapath
module Library = Apex_peak.Library
module Rules = Apex_mapper.Rules
module Apps = Apex_halide.Apps
module Lint = Apex_lint.Engine

module Configspace = Apex_verif.Configspace

type t = {
  name : string;
  dp : D.t;
  patterns : Pattern.t list;
  rules : Rules.t list;
  configspace : Configspace.report option;
}

module Store = Apex_exec.Store

(* the identity: the analyses a variant is built from come from
   Dse.analysis_of, whose job scope is the one in-process memo;
   perfbench still wraps its jobs in this *)
let with_local_memo f = f ()

let interesting_patterns ?(min_mis = 4) ranked =
  List.filter_map
    (fun (r : Analysis.ranked) ->
      if r.mis_size >= min_mis && Pattern.size r.pattern >= 2 then
        Some r.pattern
      else None)
    ranked

(* The configuration-space analysis re-proves every registered config
   of the datapath.  Unmemoized, it was most of a warm DSE pass's
   variant construction: a warm `apex profile --all --jobs 1` on a
   2-vCPU host spent 105-120 ms of variant self time and made 1121
   solver calls, against 14 ms and none with this memo.  It is
   store-memoized on the datapath's content.  A hit replays the
   analysis's counters and exact outcome and re-labels the report for
   this variant, so warm and cold runs report the same
   [analysis.configspace.*] counters; only the solver counters drop.
   A degraded analysis (fault-injected or deadline-cancelled) is never
   stored. *)
let configspace name (dp : D.t) =
  let analyzed = ref false in
  let report, dp =
    Store.memoize ~ns:"configspace"
      ~key:
        (Store.key ~version:"configspace/1"
           [ Store.fingerprint (dp.D.nodes, dp.D.edges, dp.D.configs) ])
      ~cacheable:(fun ((r : Configspace.report), _) -> not r.degraded)
      (fun () ->
        analyzed := true;
        Configspace.analyze ~label:name dp)
  in
  if not !analyzed then Configspace.replay report;
  ({ report with label = name }, dp)

let make name dp patterns =
  (* configuration-space analysis runs before the phase-boundary lint
     and before rule synthesis: the pruned datapath (unreachable mux
     arms and fabric deleted, every registered config re-proved
     equivalent) is what flows into costing and mapping *)
  let report, dp = configspace name dp in
  Check.verify "merging" [ Lint.Datapath { label = name; dp; patterns } ];
  let rules = Rules.rule_set dp ~patterns in
  Check.verify "synthesis" [ Lint.Rule_set { label = name; dp; rules } ];
  { name; dp; patterns; rules; configspace = Some report }

let baseline () = make "PE Base" (Library.baseline ()) []

let pe1 (app : Apps.t) =
  let app = Optimize.app app in
  make "PE 1" (Library.subset ~ops:(Library.ops_of_graph app.graph)) []

let merge_into dp patterns =
  Store.memoize ~ns:"merge"
    ~key:
      (* merge/2: datapath nodes carry proven widths *)
      (Store.key ~version:"merge/2"
         [ Store.fingerprint (dp.D.nodes, dp.D.edges, dp.D.configs);
           Store.fingerprint (List.map Pattern.code patterns) ])
    (fun () -> List.fold_left (fun dp p -> fst (Merge.merge dp p)) dp patterns)

let specialized (app : Apps.t) ranked ~n_subgraphs =
  let app = Optimize.app app in
  let patterns =
    List.filteri (fun i _ -> i < n_subgraphs) (interesting_patterns ranked)
  in
  let dp = Library.subset ~ops:(Library.ops_of_graph app.graph) in
  make
    (Printf.sprintf "PE %d" (n_subgraphs + 1))
    (merge_into dp patterns) patterns

let domain ~name ?(per_app = 2) analyses =
  (* a domain PE keeps the full baseline operation set: it must stay
     programmable for applications of the domain that were never
     analyzed (the Fig. 13 generalization experiment) *)
  let ops = Library.baseline_ops in
  (* the paper's Fig. 10 shades per-application subgraphs into PE IP:
     take the top [per_app] patterns of each application (round robin,
     deduplicated) so every application contributes its own idioms *)
  let per_app_ranked = List.map interesting_patterns analyses in
  let seen = Hashtbl.create 16 in
  let patterns = ref [] in
  for round = 0 to per_app - 1 do
    List.iter
      (fun ranked ->
        match List.nth_opt ranked round with
        | Some p ->
            let code = Pattern.code p in
            if not (Hashtbl.mem seen code) then begin
              Hashtbl.replace seen code ();
              patterns := p :: !patterns
            end
        | None -> ())
      per_app_ranked
  done;
  let patterns = List.rev !patterns in
  make name (merge_into (Library.subset ~ops) patterns) patterns
