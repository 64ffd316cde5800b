module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Sem = Apex_dfg.Sem
module Interp = Apex_dfg.Interp
module Pattern = Apex_mining.Pattern
module D = Apex_merging.Datapath
module Bv = Apex_smt.Bv
module Sat = Apex_smt.Sat

type verdict =
  | Proved of int
  | Tested
  | Refuted of (int * int) list

let pp_verdict ppf = function
  | Proved w -> Format.fprintf ppf "proved@%d-bit" w
  | Tested -> Format.fprintf ppf "tested"
  | Refuted cex ->
      Format.fprintf ppf "refuted {%s}"
        (String.concat ", "
           (List.map (fun (i, v) -> Printf.sprintf "%d=%d" i v) cex))

(* --- concrete evaluation of both sides at 16-bit --- *)

let eval_16 dp (cfg : D.config) pg (assignment : (int * int) list) =
  (* assignment: pattern input node -> value *)
  let named =
    List.map
      (fun (pi, v) ->
        match (G.node pg pi).op with
        | Op.Input n | Op.Bit_input n -> (n, v)
        | _ -> invalid_arg "Verify: cfg input is not a pattern input node")
      assignment
  in
  let golden = Interp.run pg named in
  let env =
    List.map (fun (pi, port) -> (port, List.assoc pi assignment)) cfg.D.inputs
  in
  let actual = D.evaluate dp cfg ~env in
  let actual = List.sort compare actual in
  ( List.map snd golden,
    List.map snd actual )

let random_assignment st pg (cfg : D.config) =
  List.map
    (fun (pi, _) ->
      match (G.node pg pi).op with
      | Op.Bit_input _ -> (pi, Random.State.int st 2)
      | _ -> (pi, Random.State.int st 0x10000))
    cfg.D.inputs

(* --- symbolic encodings --- *)

let encode_pattern ctx pg (input_bvs : (int * Bv.bv) list) =
  let n = G.length pg in
  let vals = Array.make n [||] in
  Array.iter
    (fun (node : G.node) ->
      let v =
        match node.op with
        | Op.Input _ | Op.Bit_input _ -> List.assoc node.id input_bvs
        | Op.Output _ | Op.Bit_output _ -> vals.(node.args.(0))
        | op -> Bv.eval_op ctx op (Array.map (fun a -> vals.(a)) node.args)
      in
      vals.(node.id) <- v)
    (G.nodes pg);
  G.io_outputs pg |> List.map (fun (n : G.node) -> vals.(n.id))

let encode_datapath ctx dp (cfg : D.config) (port_bvs : (int * Bv.bv) list) =
  let n = Array.length dp.D.nodes in
  let memo = Array.make n None in
  let width = Bv.word_width ctx in
  let rec value id =
    match memo.(id) with
    | Some v -> v
    | None ->
        let v =
          match dp.D.nodes.(id).kind with
          | D.In_port | D.Bit_in_port -> (
              match List.assoc_opt id port_bvs with
              | Some v -> v
              | None ->
                  (* unbound port: constrain nothing, treat as fresh *)
                  Bv.fresh ctx
                    (match dp.D.nodes.(id).kind with
                    | D.Bit_in_port -> 1
                    | _ -> width))
          | D.Creg ->
              let v = Option.value ~default:0 (List.assoc_opt id cfg.D.consts) in
              Bv.const ctx ~width v
          | D.Fu _ -> (
              match List.assoc_opt id cfg.D.fu_ops with
              | None -> failwith "Verify.encode_datapath: inactive FU reached"
              | Some op ->
                  let args =
                    Array.init (Op.arity op) (fun port ->
                        match List.assoc_opt (id, port) cfg.D.routes with
                        | Some src -> value src
                        | None ->
                            failwith "Verify.encode_datapath: missing route")
                  in
                  Bv.eval_op ctx op args)
        in
        memo.(id) <- Some v;
        v
  in
  List.sort compare cfg.D.outputs |> List.map (fun (_, node) -> value node)

let count_verdict = function
  | Proved _ -> Apex_telemetry.Counter.incr "smt.proved"
  | Tested -> Apex_telemetry.Counter.incr "smt.tested"
  | Refuted _ -> Apex_telemetry.Counter.incr "smt.refuted"

let verify_config_uncounted ?(width = 8) ?(conflict_budget = 200_000) dp
    (cfg : D.config) p =
  let pg = Pattern.graph p in
  let n_pattern_inputs = List.length (G.io_inputs pg) in
  if List.length cfg.D.inputs <> n_pattern_inputs then
    invalid_arg "Verify.verify_config: config does not bind all pattern inputs";
  (* phase 1: random 16-bit testing *)
  let st = Random.State.make [| 0x5eed |] in
  let refuted = ref None in
  (try
     for _ = 1 to 200 do
       Apex_guard.tick ();
       let assignment = random_assignment st pg cfg in
       let golden, actual = eval_16 dp cfg pg assignment in
       if golden <> actual then begin
         refuted := Some assignment;
         raise Exit
       end
     done
   with Exit -> ());
  match !refuted with
  | Some cex -> Refuted cex
  | None -> (
      (* phase 2: SAT equivalence at reduced width *)
      let ctx = Bv.create ~word_width:width () in
      let input_bvs =
        List.map
          (fun (pi, _) ->
            match (G.node pg pi).op with
            | Op.Bit_input _ -> (pi, Bv.fresh ctx 1)
            | _ -> (pi, Bv.fresh ctx width))
          cfg.D.inputs
      in
      let port_bvs =
        List.map (fun (pi, port) -> (port, List.assoc pi input_bvs)) cfg.D.inputs
      in
      let golden = encode_pattern ctx pg input_bvs in
      match encode_datapath ctx dp cfg port_bvs with
      | exception (Failure _ | Invalid_argument _) -> Tested
      | actual ->
          if List.length golden <> List.length actual then Tested
          else begin
            Bv.assert_not_equal ctx golden actual;
            let rec refine budget_left =
              Apex_guard.tick ();
              match Sat.solve ~conflict_budget:budget_left (Bv.sat ctx) with
              | Sat.Unsat -> Proved width
              | Sat.Unknown -> Tested
              | Sat.Sat ->
                  (* counterexample at reduced width: replay at 16-bit *)
                  let assignment =
                    List.map
                      (fun (pi, bv) -> (pi, Bv.model_of ctx bv))
                      input_bvs
                  in
                  let g16, a16 = eval_16 dp cfg pg assignment in
                  if g16 <> a16 then Refuted assignment
                  else begin
                    (* width artifact: block this exact input vector and
                       keep searching for a real divergence *)
                    let clause =
                      List.concat_map
                        (fun (pi, bv) ->
                          let v = Bv.model_of ctx (List.assoc pi input_bvs) in
                          ignore pi;
                          Array.to_list
                            (Array.mapi
                               (fun i l ->
                                 if (v lsr i) land 1 = 1 then Sat.negate l else l)
                               bv))
                        input_bvs
                    in
                    Sat.add_clause (Bv.sat ctx) clause;
                    if budget_left > 1000 then refine (budget_left / 2)
                    else Tested
                  end
            in
            refine conflict_budget
          end)

let verify_config ?width ?conflict_budget dp cfg p =
  Apex_telemetry.Span.with_ "verify" @@ fun () ->
  Apex_telemetry.Counter.incr "smt.verifications";
  let verdict =
    verify_config_uncounted ?width ?conflict_budget dp cfg p
  in
  count_verdict verdict;
  verdict
