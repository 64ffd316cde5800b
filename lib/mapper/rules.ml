module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Pattern = Apex_mining.Pattern
module D = Apex_merging.Datapath
module Synth = Apex_verif.Synth
module Verify = Apex_verif.Verify

type t = {
  pattern : Pattern.t;
  config : D.config;
  wild_consts : bool;
  size : int;
}

(* single-op pattern with constant operands at [ports] *)
let const_op_pattern op ~ports =
  let b = G.Builder.create () in
  let args =
    Array.mapi
      (fun i w ->
        if List.mem i ports then G.Builder.add0 b (Op.Const 0)
        else
          match (w : Op.width) with
          | Op.Word -> G.Builder.add0 b (Op.Input (Printf.sprintf "x%d" i))
          | Op.Bit -> G.Builder.add0 b (Op.Bit_input (Printf.sprintf "p%d" i)))
      (Op.input_widths op)
  in
  let n = G.Builder.add b op args in
  (match Op.result_width op with
  | Op.Word -> ignore (G.Builder.add1 b (Op.Output "y") n)
  | Op.Bit -> ignore (G.Builder.add1 b (Op.Bit_output "y") n));
  Pattern.of_graph (G.Builder.finish b)

(* binary op applied to one shared operand: op(x, x) *)
let shared_op_pattern op =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let n = G.Builder.add b op [| x; x |] in
  (match Op.result_width op with
  | Op.Word -> ignore (G.Builder.add1 b (Op.Output "y") n)
  | Op.Bit -> ignore (G.Builder.add1 b (Op.Bit_output "y") n));
  Pattern.of_graph (G.Builder.finish b)

(* bind a library config's free inputs to a pattern's inputs and
   constants to its Const nodes, in pattern order *)
let bind_library_config (dp : D.t) (cfg : D.config) (p : Pattern.t) =
  let pg = Pattern.graph p in
  (* pattern inputs in id order, split by width; library configs route
     in0 before in1, so order-based binding matches port order *)
  let word_inputs, bit_inputs =
    List.partition
      (fun (n : G.node) -> match n.op with Op.Input _ -> true | _ -> false)
      (G.io_inputs pg)
  in
  let rec uniq seen = function
    | [] -> []
    | x :: rest ->
        if List.mem x seen then uniq seen rest else x :: uniq (x :: seen) rest
  in
  (* ports actually routed by this config, in route order, by width *)
  let routed kind_pred =
    uniq []
      (List.filter_map
         (fun (_, src) ->
           if kind_pred dp.D.nodes.(src).D.kind then Some src else None)
         cfg.D.routes)
  in
  let word_ports = routed (fun k -> k = D.In_port) in
  let bit_ports = routed (fun k -> k = D.Bit_in_port) in
  if
    List.length word_inputs <> List.length word_ports
    || List.length bit_inputs <> List.length bit_ports
  then None
  else
    let pair ins ports =
      List.combine (List.map (fun (n : G.node) -> n.id) ins) ports
    in
    Some
      { cfg with
        D.inputs =
          List.sort compare (pair word_inputs word_ports @ pair bit_inputs bit_ports) }

(* pattern Const node ids in id order, to pair with config consts *)
let pattern_consts p =
  let pg = Pattern.graph p in
  Array.to_list (G.nodes pg)
  |> List.filter_map (fun (n : G.node) ->
         if Op.is_const n.op then Some n.id else None)

let single_op_rules (dp : D.t) =
  List.filter_map
    (fun (cfg : D.config) ->
      let label = cfg.D.label in
      match String.index_opt label '$' with
      | None -> (
          (* plain single-op configuration? *)
          match cfg.D.fu_ops with
          | [ (_, op) ] when Op.is_compute op && cfg.D.consts = [] -> (
              let p = Synth.op_pattern op in
              match bind_library_config dp cfg p with
              | None -> None
              | Some config ->
                  Some
                    { pattern = p; config; wild_consts = false;
                      size = Pattern.size p })
          | _ -> None)
      | Some i -> (
          let suffix = String.sub label (i + 1) (String.length label - i - 1) in
          match cfg.D.fu_ops with
          | [ (_, op) ] when Op.is_compute op -> (
              match suffix.[0] with
              | 's' -> (
                  (* shared-operand variant: "<op>$s" *)
                  let p = shared_op_pattern op in
                  match bind_library_config dp cfg p with
                  | None -> None
                  | Some config ->
                      Some
                        { pattern = p; config; wild_consts = false;
                          size = Pattern.size p })
              | 'c' -> (
                  (* const-operand variant: "<op>$c<ports>", one digit
                     per constant port *)
                  let ports =
                    List.init
                      (String.length suffix - 1)
                      (fun k -> Char.code suffix.[k + 1] - Char.code '0')
                  in
                  let p = const_op_pattern op ~ports in
                  match bind_library_config dp cfg p with
                  | None -> None
                  | Some config ->
                      Some
                        { pattern = p; config; wild_consts = true;
                          size = Pattern.size p })
              | _ -> None)
          | _ -> None))
    dp.D.configs

let pattern_rule (dp : D.t) p =
  let width = 8 in
  match Synth.structural ~width dp p with
  | None -> None
  | Some { Synth.verdict = Verify.Refuted _; _ } -> None
  | Some rule ->
      Apex_telemetry.Counter.incr "rules.verified";
      Some
        { pattern = p; config = rule.Synth.config;
          wild_consts = pattern_consts p <> [];
          size = Pattern.size p }

module Store = Apex_exec.Store

let rule_set (dp : D.t) ~patterns =
  Apex_telemetry.Span.with_ "rules" @@ fun () ->
  let key =
    Store.key ~version:"rules/2" (dp, List.map Pattern.code patterns)
  in
  (* SMT rule synthesis dominates warm-path cost; a hit skips it
     entirely. *)
  let rules =
    Store.memoize ~ns:"rules" ~key @@ fun () ->
    let complex = List.filter_map (pattern_rule dp) patterns in
    let simple = single_op_rules dp in
    List.sort (fun a b -> compare b.size a.size) (complex @ simple)
  in
  Apex_telemetry.Counter.add "rules.in_rule_set" (List.length rules);
  rules
