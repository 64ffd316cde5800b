module Json = Apex_telemetry.Json

type severity = Note | Warning | Error

type loc =
  | No_loc
  | Node of int
  | Edge of { src : int; dst : int; port : int }
  | Config of string
  | Rule of string
  | Instance of int

type t = {
  code : string;
  severity : severity;
  loc : loc;
  message : string;
}

let make ?(loc = No_loc) severity ~code message =
  { code; severity; loc; message }

let notef ?loc ~code fmt =
  Printf.ksprintf (fun m -> make ?loc Note ~code m) fmt

let warnf ?loc ~code fmt =
  Printf.ksprintf (fun m -> make ?loc Warning ~code m) fmt

let errorf ?loc ~code fmt =
  Printf.ksprintf (fun m -> make ?loc Error ~code m) fmt

let severity_string = function
  | Note -> "note"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Error -> 0 | Warning -> 1 | Note -> 2

let loc_key = function
  | No_loc -> (0, 0, 0, "")
  | Node i -> (1, i, 0, "")
  | Edge { src; dst; port } -> (2, src, (dst * 16) + port, "")
  | Config l -> (3, 0, 0, l)
  | Rule l -> (4, 0, 0, l)
  | Instance i -> (5, i, 0, "")

let compare a b =
  match Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
      match String.compare a.code b.code with
      | 0 -> (
          match Stdlib.compare (loc_key a.loc) (loc_key b.loc) with
          | 0 -> String.compare a.message b.message
          | c -> c)
      | c -> c)
  | c -> c

let pp_loc ppf = function
  | No_loc -> ()
  | Node i -> Format.fprintf ppf "node %d: " i
  | Edge { src; dst; port } -> Format.fprintf ppf "edge %d->%d.%d: " src dst port
  | Config l -> Format.fprintf ppf "config %s: " l
  | Rule l -> Format.fprintf ppf "rule %s: " l
  | Instance i -> Format.fprintf ppf "instance %d: " i

let pp ppf d =
  Format.fprintf ppf "%s[%s] %a%s"
    (severity_string d.severity)
    d.code pp_loc d.loc d.message

let loc_to_json = function
  | No_loc -> Json.Null
  | Node i -> Json.Obj [ ("kind", Json.String "node"); ("id", Json.Int i) ]
  | Edge { src; dst; port } ->
      Json.Obj
        [ ("kind", Json.String "edge"); ("src", Json.Int src);
          ("dst", Json.Int dst); ("port", Json.Int port) ]
  | Config l ->
      Json.Obj [ ("kind", Json.String "config"); ("label", Json.String l) ]
  | Rule l -> Json.Obj [ ("kind", Json.String "rule"); ("label", Json.String l) ]
  | Instance i ->
      Json.Obj [ ("kind", Json.String "instance"); ("id", Json.Int i) ]

let to_json d =
  Json.Obj
    [ ("code", Json.String d.code);
      ("severity", Json.String (severity_string d.severity));
      ("loc", loc_to_json d.loc);
      ("message", Json.String d.message) ]

type info = {
  code_info : string;
  layer : string;
  default_severity : severity;
  invariant : string;
}

let catalog =
  [ (* dataflow graphs *)
    { code_info = "APX001"; layer = "dfg"; default_severity = Error;
      invariant = "node ids are dense and equal to the array index" };
    { code_info = "APX002"; layer = "dfg"; default_severity = Error;
      invariant = "every node has exactly Op.arity input ports" };
    { code_info = "APX003"; layer = "dfg"; default_severity = Error;
      invariant =
        "every argument id is in range and strictly smaller than its user \
         (topological order; implies acyclicity)" };
    { code_info = "APX004"; layer = "dfg"; default_severity = Error;
      invariant = "driver result width matches the port width (16-bit vs 1-bit)" };
    { code_info = "APX005"; layer = "dfg"; default_severity = Error;
      invariant = "application input / output names are unique" };
    { code_info = "APX006"; layer = "dfg"; default_severity = Warning;
      invariant = "no dead compute node (result consumed by someone)" };
    { code_info = "APX007"; layer = "dfg"; default_severity = Note;
      invariant = "no dangling input (every input feeds a node)" };
    { code_info = "APX008"; layer = "dfg"; default_severity = Warning;
      invariant = "constants fit their width (16-bit words, 8-bit LUT tables)" };
    (* merged datapaths *)
    { code_info = "APX020"; layer = "datapath"; default_severity = Error;
      invariant =
        "edges connect existing nodes, end on functional units, and are not \
         duplicated" };
    { code_info = "APX021"; layer = "datapath"; default_severity = Error;
      invariant = "every FU has a non-empty op set, all of the FU's kind" };
    { code_info = "APX022"; layer = "datapath"; default_severity = Error;
      invariant = "the static (all-edges) datapath graph is acyclic" };
    { code_info = "APX023"; layer = "datapath"; default_severity = Error;
      invariant =
        "configs activate existing FUs with supported ops, route only \
         existing edges from active sources, and expose one existing node \
         per output position, never an inactive FU" };
    { code_info = "APX024"; layer = "datapath"; default_severity = Error;
      invariant =
        "mux selects are exhaustive: every port of an active FU has a route" };
    { code_info = "APX025"; layer = "datapath"; default_severity = Error;
      invariant =
        "a merged config covers its source pattern's compute nodes exactly \
         once (one active FU per pattern node)" };
    { code_info = "APX026"; layer = "datapath"; default_severity = Error;
      invariant =
        "a merged config realizes its source pattern functionally (random \
         16-bit vectors against the golden interpreter)" };
    { code_info = "APX027"; layer = "datapath"; default_severity = Warning;
      invariant = "no FU is dead area: every FU is active in some config" };
    { code_info = "APX028"; layer = "datapath"; default_severity = Error;
      invariant = "constant-register values fit in 16 bits" };
    { code_info = "APX029"; layer = "datapath"; default_severity = Error;
      invariant =
        "area accounting matches the models: every FU op has a finite, \
         positive cost entry and the datapath area is finite" };
    { code_info = "APX030"; layer = "datapath"; default_severity = Note;
      invariant = "configs do not route or activate nodes outside their \
                   pattern (dead select encodings)" };
    (* rewrite rules *)
    { code_info = "APX041"; layer = "rules"; default_severity = Error;
      invariant =
        "a rule is usable by Mapper.cover: inputs bound to ports, compute \
         nodes paired with fu_ops, sinks exposed on outputs" };
    { code_info = "APX042"; layer = "rules"; default_severity = Warning;
      invariant = "no rule is shadowed by an earlier rule with the same \
                   canonical pattern" };
    { code_info = "APX043"; layer = "rules"; default_severity = Error;
      invariant =
        "a rule's config computes its pattern (random 16-bit vectors \
         against the golden interpreter)" };
    (* semantic facts (abstract interpretation) *)
    { code_info = "APX100"; layer = "analysis"; default_severity = Warning;
      invariant = "no mux with a provably constant select (dead arm)" };
    { code_info = "APX101"; layer = "analysis"; default_severity = Warning;
      invariant = "no predicate that is provably always true / always false" };
    { code_info = "APX102"; layer = "analysis"; default_severity = Warning;
      invariant = "no shift whose amount is provably >= 16 (saturates)" };
    { code_info = "APX103"; layer = "analysis"; default_severity = Warning;
      invariant =
        "no structurally duplicate pure node (same op, same arguments)" };
    (* width annotations (demanded-bits / known-bits) *)
    { code_info = "APX110"; layer = "analysis"; default_severity = Note;
      invariant =
        "no node wider than its proven demand (unexploited narrowing \
         opportunity; aggregate note on unannotated graphs)" };
    { code_info = "APX111"; layer = "analysis"; default_severity = Error;
      invariant =
        "annotated widths are in range and cover every provably live bit \
         (demanded and not known-zero)" };
    { code_info = "APX112"; layer = "analysis"; default_severity = Error;
      invariant =
        "mux widths are consistent across arms: live arm bits under the \
         mux's demand fit the mux's annotated width" };
    (* pipelining *)
    { code_info = "APX060"; layer = "pipeline"; default_severity = Error;
      invariant =
        "the PE pipeline plan is feasible: its stage count and period admit \
         a stage assignment" };
    { code_info = "APX061"; layer = "pipeline"; default_severity = Error;
      invariant =
        "the plan's register count equals the registers implied by the stage \
         assignment (stage-count consistency)" };
    { code_info = "APX062"; layer = "pipeline"; default_severity = Error;
      invariant = "no datapath edge travels backwards in pipeline stages" };
    { code_info = "APX063"; layer = "pipeline"; default_severity = Error;
      invariant =
        "application pipelining balances every reconvergent path: all inputs \
         of a PE instance arrive in the same cycle" };
    { code_info = "APX064"; layer = "pipeline"; default_severity = Error;
      invariant =
        "the plan's depth_cycles equals the recomputed output arrival time" };
    { code_info = "APX065"; layer = "pipeline"; default_severity = Error;
      invariant =
        "register/register-file accounting matches the per-edge chains \
         (no negative chains, counts add up)" } ]
