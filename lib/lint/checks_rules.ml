(* Rewrite-rule linting.

   A rule is only as good as three promises: its configuration is valid
   for the PE datapath (the same APX023/APX024 checks as a registered
   config, located at the rule), Mapper.cover can actually apply it
   (inputs bound to ports, compute nodes positionally paired with fu_ops,
   sinks exposed on outputs, constants paired with registers), and the
   configured datapath computes the pattern.  The last promise is
   checked on random 16-bit vectors (APX043) against the golden
   interpreter; the SAT proof of complex rules belongs to
   Rules.pattern_rule, which drops every refuted rule, and `apex verify`
   reports its verdicts. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Pattern = Apex_mining.Pattern
module Dp = Apex_merging.Datapath
module Rules = Apex_mapper.Rules
module D = Diagnostic

let rule_label (r : Rules.t) = r.Rules.config.Dp.label

let pattern_nodes p pred =
  Array.to_list (G.nodes (Pattern.graph p))
  |> List.filter_map (fun (nd : G.node) ->
         if pred nd.op then Some nd.id else None)

let cover_usability (dp : Dp.t) (r : Rules.t) emit =
  let loc = D.Rule (rule_label r) in
  let cfg = r.Rules.config in
  let p = r.Rules.pattern in
  let pg = Pattern.graph p in
  let n = Array.length dp.Dp.nodes in
  (* 1. every pattern input bound to a real input port of the right width *)
  List.iter
    (fun (nd : G.node) ->
      match nd.op with
      | Op.Input name | Op.Bit_input name -> (
          match List.assoc_opt nd.id cfg.Dp.inputs with
          | None ->
              emit
                (D.errorf ~loc ~code:"APX041"
                   "pattern input %S (node %d) is bound to no PE port; \
                    Mapper.cover cannot wire it"
                   name nd.id)
          | Some port ->
              let want =
                match nd.op with Op.Bit_input _ -> Dp.Bit_in_port | _ -> Dp.In_port
              in
              if
                not
                  (port >= 0 && port < n
                  && dp.Dp.nodes.(port).Dp.kind = want)
              then
                emit
                  (D.errorf ~loc ~code:"APX041"
                     "pattern input %S is bound to node %d, not a matching \
                      input port"
                     name port))
      | _ -> ())
    (G.nodes pg |> Array.to_list);
  (* 2. compute nodes pair positionally with fu_ops *)
  let compute = pattern_nodes p Op.is_compute in
  if List.length compute <> List.length cfg.Dp.fu_ops then
    emit
      (D.errorf ~loc ~code:"APX041"
         "pattern has %d compute nodes but the config activates %d FUs; the \
          positional pairing Mapper.cover uses is broken"
         (List.length compute)
         (List.length cfg.Dp.fu_ops))
  else begin
    (* 3. every sink's FU must be exposed on a PE output *)
    let sinks =
      G.io_outputs pg |> List.map (fun (nd : G.node) -> nd.args.(0))
    in
    List.iter
      (fun sink ->
        match
          List.find_map
            (fun (pc, (fu, _)) -> if pc = sink then Some fu else None)
            (List.combine compute cfg.Dp.fu_ops)
        with
        | None ->
            emit
              (D.errorf ~loc ~code:"APX041"
                 "pattern sink %d is implemented by no active FU" sink)
        | Some fu ->
            if not (List.exists (fun (_, m) -> m = fu) cfg.Dp.outputs) then
              emit
                (D.errorf ~loc ~code:"APX041"
                   "pattern sink %d (FU %d) is exposed on no PE output" sink fu))
      sinks
  end;
  (* 4. constants pair with constant registers (Cover.specialize refuses
     the rule otherwise) *)
  let consts = pattern_nodes p Op.is_const in
  if List.length consts <> List.length cfg.Dp.consts then
    emit
      (D.errorf ~loc ~code:"APX041"
         "pattern has %d constants but the config sets %d registers; \
          Cover.specialize will reject every match"
         (List.length consts)
         (List.length cfg.Dp.consts))

(* Concrete shape of a pattern graph.  Deliberately NOT the canonical
   code: commutative const variants ($c0 / $c1) share a canonical code
   but match different concrete sites, so neither shadows the other. *)
let concrete_shape p =
  let buf = Buffer.create 64 in
  Array.iter
    (fun (nd : G.node) ->
      Buffer.add_string buf (Op.mnemonic nd.op);
      Array.iter (fun a -> Buffer.add_string buf (Printf.sprintf ".%d" a)) nd.args;
      Buffer.add_char buf ';')
    (G.nodes (Pattern.graph p));
  Buffer.contents buf

let shadowing rules emit =
  let seen : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Rules.t) ->
      let code = concrete_shape r.Rules.pattern in
      match Hashtbl.find_opt seen code with
      | Some first ->
          emit
            (D.warnf ~loc:(D.Rule (rule_label r)) ~code:"APX042"
               "same pattern as earlier rule %s; instruction selection will \
                never reach this rule"
               first)
      | None -> Hashtbl.replace seen code (rule_label r))
    rules

let semantics (dp : Dp.t) (r : Rules.t) emit =
  match Checks_datapath.functional_mismatch dp r.Rules.config r.Rules.pattern with
  | Some m ->
      emit
        (D.errorf ~loc:(D.Rule (rule_label r)) ~code:"APX043"
           "config does not compute the rule's pattern: %s" m)
  | None -> ()

let run ~dp rules =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  shadowing rules emit;
  List.iter
    (fun (r : Rules.t) ->
      let before = List.length !diags in
      Checks_datapath.config_checks ~loc:(D.Rule (rule_label r)) dp
        r.Rules.config emit;
      cover_usability dp r emit;
      (* semantics only when the rule is structurally sound: evaluating a
         broken config would just duplicate the structural finding *)
      if List.length !diags = before then semantics dp r emit)
    rules;
  List.rev !diags
