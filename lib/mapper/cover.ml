module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Pattern = Apex_mining.Pattern
module Match = Apex_mining.Match
module D = Apex_merging.Datapath

type driver =
  | From_input of string
  | From_pe of int * int

type instance = {
  id : int;
  config : D.config;
  rule_label : string;
  inputs : (int * driver) list;
  covered : int list;
}

type t = {
  app : G.t;
  instances : instance array;
  outputs : (string * driver) list;
}

exception Unmappable of string

type order = Complex_first | Simple_first

(* pattern compute node ids in id order; positionally paired with the
   rule config's fu_ops (an invariant of every rule source) *)
let pattern_compute p =
  let pg = Pattern.graph p in
  Array.to_list (G.nodes pg)
  |> List.filter_map (fun (n : G.node) ->
         if Op.is_compute n.op then Some n.id else None)

let pattern_consts p =
  let pg = Pattern.graph p in
  Array.to_list (G.nodes pg)
  |> List.filter_map (fun (n : G.node) ->
         if Op.is_const n.op then Some n.id else None)

let pattern_sinks p =
  let pg = Pattern.graph p in
  G.io_outputs pg |> List.map (fun (n : G.node) -> n.args.(0))

(* specialize a rule's config to a concrete match: copy matched
   constants into the constant registers and matched LUT tables into
   the LUT ops.  Returns None when two pattern constants would require
   one shared register to hold different values. *)
let specialize (rule : Rules.t) app (binding : Match.binding) =
  let consts_nodes = pattern_consts rule.pattern in
  let compute_nodes = pattern_compute rule.pattern in
  let cfg = rule.config in
  let const_value pnode =
    let a = List.assoc pnode binding.nodes in
    match (G.node app a).op with
    | Op.Const v -> v land 0xffff
    | Op.Bit_const b -> if b then 1 else 0
    | _ -> raise (Unmappable "const pattern node bound to non-const")
  in
  if List.length consts_nodes <> List.length cfg.D.consts then None
  else begin
    let pairs =
      List.map2 (fun pnode (creg, _) -> (creg, const_value pnode)) consts_nodes
        cfg.D.consts
    in
    (* conflicting values on one shared register: reject *)
    let conflict =
      List.exists
        (fun (creg, v) ->
          List.exists (fun (creg', v') -> creg = creg' && v <> v') pairs)
        pairs
    in
    if conflict then None
    else begin
      let fu_ops =
        if List.length compute_nodes <> List.length cfg.D.fu_ops then
          cfg.D.fu_ops
        else
          List.map2
            (fun pnode (fu, op) ->
              match op with
              | Op.Lut _ -> (
                  let a = List.assoc pnode binding.nodes in
                  match (G.node app a).op with
                  | Op.Lut tt -> (fu, Op.Lut tt)
                  | _ -> (fu, op))
              | _ -> (fu, op))
            compute_nodes cfg.D.fu_ops
      in
      Some { cfg with D.consts = pairs; fu_ops }
    end
  end

module Counter = Apex_telemetry.Counter

let map_app ?(order = Complex_first) ~rules app =
  Apex_telemetry.Span.with_ "mapping" @@ fun () ->
  Counter.incr "mapper.map_app_calls";
  let rules =
    match order with
    | Complex_first -> List.sort (fun (a : Rules.t) b -> compare b.size a.size) rules
    | Simple_first -> List.sort (fun (a : Rules.t) b -> compare a.size b.size) rules
  in
  let n = G.length app in
  let succs = G.succs app in
  let covered = Array.make n false in
  let accepted = ref [] in
  (* grouping nodes into one PE contracts them in the dataflow graph;
     every accepted match must keep the contracted graph acyclic or the
     PE-level netlist (and its static schedule) would contain a cycle.
     Constants never participate: each PE gets a private register copy. *)
  let owner = Array.make n (-1) in
  let n_accepted = ref 0 in
  let acyclic_with image =
    let multi =
      List.length (List.filter (fun a -> Op.is_compute (G.node app a).op) image)
      >= 2
    in
    if not multi then true (* singleton groups cannot change the contraction *)
    else begin
      let temp_owner = !n_accepted in
      let group a =
        if List.mem a image then temp_owner
        else if owner.(a) >= 0 then owner.(a)
        else ~-(a + 2) (* unique singleton group *)
      in
      (* cycle detection on the contracted graph via DFS coloring *)
      let color : (int, int) Hashtbl.t = Hashtbl.create 64 in
      (* members of each group *)
      let members : (int, int list) Hashtbl.t = Hashtbl.create 64 in
      Array.iter
        (fun (nd : G.node) ->
          if not (Op.is_const nd.op) then begin
            let g = group nd.id in
            let prev = Option.value ~default:[] (Hashtbl.find_opt members g) in
            Hashtbl.replace members g (nd.id :: prev)
          end)
        (G.nodes app);
      let ok = ref true in
      let rec visit g =
        match Hashtbl.find_opt color g with
        | Some 1 -> ok := false (* back edge: cycle *)
        | Some 2 -> ()
        | Some _ | None ->
            Hashtbl.replace color g 1;
            List.iter
              (fun member ->
                List.iter
                  (fun s ->
                    if !ok && not (Op.is_const (G.node app s).op) then begin
                      let gs = group s in
                      if gs <> g then visit gs
                    end)
                  succs.(member))
              (Option.value ~default:[] (Hashtbl.find_opt members g));
            Hashtbl.replace color g 2
      in
      Hashtbl.iter (fun g _ -> if !ok && Hashtbl.find_opt color g <> Some 2 then visit g) members;
      !ok
    end
  in
  (* per-rule facts are computed once, outside the root loop *)
  let try_rule (rule : Rules.t) =
    let pg = Pattern.graph rule.pattern in
    let p_const =
      Array.map (fun (nd : G.node) -> Op.is_const nd.op) (G.nodes pg)
    in
    let p_compute =
      Array.map (fun (nd : G.node) -> Op.is_compute nd.op) (G.nodes pg)
    in
    let sinks = pattern_sinks rule.pattern in
    let viable (b : Match.binding) =
      let image = List.map snd b.nodes in
      List.for_all
        (fun (p, a) ->
          if p_const.(p) then Op.is_const (G.node app a).op
          else
            (not covered.(a))
            && (* interior results must stay inside the match *)
            (List.mem p sinks
            || List.for_all (fun s -> List.mem s image) succs.(a)))
        b.nodes
      && (* inputs must not be constants: the $-variants cover those *)
      List.for_all (fun (_, a) -> not (Op.is_const (G.node app a).op)) b.inputs
      && acyclic_with image
    in
    fun root ->
      if not covered.(root) then begin
        Counter.incr "mapper.cover_attempts";
        let bindings =
          Match.matches_at ~wild_consts:rule.Rules.wild_consts ~succs
            rule.pattern app ~root
        in
        match List.find_opt viable bindings with
        | None -> ()
        | Some binding -> (
            match specialize rule app binding with
            | None -> ()
            | Some config ->
                List.iter
                  (fun (p, a) ->
                    if p_compute.(p) then begin
                      covered.(a) <- true;
                      owner.(a) <- !n_accepted
                    end)
                  binding.nodes;
                incr n_accepted;
                Counter.incr "mapper.matches_accepted";
                accepted := (rule, binding, config) :: !accepted)
      end
  in
  List.iter
    (fun rule ->
      let probe = try_rule rule in
      for root = n - 1 downto 0 do
        probe root
      done)
    rules;
  (* every compute node must be covered *)
  Array.iter
    (fun (nd : G.node) ->
      if Op.is_compute nd.op && not covered.(nd.id) then
        raise
          (Unmappable
             (Printf.sprintf "node %d (%s) not covered by any rule" nd.id
                (Op.mnemonic nd.op))))
    (G.nodes app);
  let accepted = Array.of_list (List.rev !accepted) in
  (* producer map: app compute node -> (instance, PE output position) *)
  let producer = Hashtbl.create 64 in
  Array.iteri
    (fun idx ((rule : Rules.t), (binding : Match.binding), (config : D.config)) ->
      let compute_nodes = pattern_compute rule.pattern in
      List.iter
        (fun sink ->
          let a = List.assoc sink binding.nodes in
          (* dp node implementing the sink, positionally *)
          let rec fu_of pc fus =
            match (pc, fus) with
            | p :: _, (fu, _) :: _ when p = sink -> fu
            | _ :: pr, _ :: fr -> fu_of pr fr
            | _ -> raise (Unmappable "fu_ops pairing broken")
          in
          let fu = fu_of compute_nodes config.D.fu_ops in
          match List.find_opt (fun (_, m) -> m = fu) config.D.outputs with
          | Some (pos, _) -> Hashtbl.replace producer a (idx, pos)
          | None -> raise (Unmappable "sink not exposed on any PE output"))
        (pattern_sinks rule.pattern))
    accepted;
  let resolve a =
    match (G.node app a).op with
    | Op.Input name | Op.Bit_input name -> From_input name
    | _ -> (
        match Hashtbl.find_opt producer a with
        | Some (idx, pos) -> From_pe (idx, pos)
        | None ->
            raise
              (Unmappable
                 (Printf.sprintf "no producer for app node %d (%s)" a
                    (Op.mnemonic (G.node app a).op))))
  in
  let instances =
    Array.mapi
      (fun idx ((rule : Rules.t), (binding : Match.binding), (config : D.config)) ->
        let inputs =
          List.map
            (fun (pi, a) ->
              let port = List.assoc pi config.D.inputs in
              (port, resolve a))
            binding.inputs
        in
        let covered =
          List.filter_map
            (fun (p, a) ->
              if Op.is_compute (G.node (Pattern.graph rule.pattern) p).op then
                Some a
              else None)
            binding.nodes
        in
        { id = idx; config; rule_label = rule.config.D.label; inputs; covered })
      accepted
  in
  let outputs =
    G.io_outputs app
    |> List.map (fun (nd : G.node) ->
           let name =
             match nd.op with
             | Op.Output s | Op.Bit_output s -> s
             | _ -> assert false
           in
           (name, resolve nd.args.(0)))
  in
  let mapped = { app; instances; outputs } in
  Counter.add "mapper.pes_mapped" (Array.length instances);
  mapped

let n_pes m = Array.length m.instances

let ops_covered m =
  Array.fold_left (fun acc i -> acc + List.length i.covered) 0 m.instances

let utilization m =
  if n_pes m = 0 then 0.0
  else float_of_int (ops_covered m) /. float_of_int (n_pes m)

let run m dp env =
  let memo : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let rec instance_outputs idx =
    match Hashtbl.find_opt memo idx with
    | Some outs -> outs
    | None ->
        let inst = m.instances.(idx) in
        let pe_env =
          List.map
            (fun (port, drv) -> (port, driver_value drv))
            inst.inputs
        in
        let outs = D.evaluate dp inst.config ~env:pe_env in
        Hashtbl.replace memo idx outs;
        outs
  and driver_value = function
    | From_input name -> (
        match List.assoc_opt name env with
        | Some v -> v
        | None -> raise (Unmappable ("missing app input " ^ name)))
    | From_pe (idx, pos) -> List.assoc pos (instance_outputs idx)
  in
  List.map (fun (name, drv) -> (name, driver_value drv)) m.outputs

let pp_stats ppf m =
  Format.fprintf ppf "mapped: %d PEs, %d ops covered, %.2f ops/PE" (n_pes m)
    (ops_covered m) (utilization m)
