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
  let is_const = Array.map (fun (nd : G.node) -> Op.is_const nd.op) (G.nodes app) in
  let covered = Array.make n false in
  let accepted = ref [] in
  (* grouping nodes into one PE contracts them in the dataflow graph;
     every accepted match must keep the contracted graph acyclic or the
     PE-level netlist (and its static schedule) would contain a cycle.
     Constants never participate: each PE gets a private register copy.
     Group [g] holds the compute nodes of the [g]-th accepted match;
     every other node is a group of its own. *)
  let owner = Array.make n (-1) in
  let members = Array.make n [] in
  let n_accepted = ref 0 in
  let attempts = ref 0 in
  (* per-candidate marks, valid while they equal [!epoch]: the image,
     and the nodes (slot [a]) and groups (slot [n + g]) the cycle
     search has reached *)
  let epoch = ref 0 in
  let in_image = Array.make n (-1) in
  let seen = Array.make (2 * n) (-1) in
  let stack = Array.make n 0 in
  (* The contracted graph is acyclic before every candidate: the app is
     a DAG, every accepted group passed this check, and a group with
     one compute node contracts nothing.  The image's compute nodes are
     uncovered, so each is its own group; merging them closes a cycle
     exactly when some path leaves the image and comes back to it.
     Search forward from the image's outside successors, a group at a
     time, until an image node is reached or the search runs out.
     Constants have no arguments, so no path passes through one. *)
  let acyclic_with image =
    let depth = ref 0 in
    (* push the unseen nodes of a successor list; [true] at the first
       image node *)
    let rec step = function
      | [] -> false
      | s :: _ when in_image.(s) = !epoch -> true
      | s :: rest ->
          let slot = if owner.(s) >= 0 then n + owner.(s) else s in
          if seen.(slot) <> !epoch then begin
            seen.(slot) <- !epoch;
            stack.(!depth) <- s;
            incr depth
          end;
          step rest
    in
    match List.filter (fun a -> not is_const.(a)) image with
    | [] | [ _ ] -> true (* singleton groups cannot change the contraction *)
    | compute ->
        let outside s = in_image.(s) <> !epoch in
        List.iter (fun a -> ignore (step (List.filter outside succs.(a)))) compute;
        let closes = ref false in
        while (not !closes) && !depth > 0 do
          decr depth;
          let v = stack.(!depth) in
          closes :=
            if owner.(v) < 0 then step succs.(v)
            else List.exists (fun m -> step succs.(m)) members.(owner.(v))
        done;
        not !closes
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
    let p_sink = Array.make (G.length pg) false in
    List.iter (fun p -> p_sink.(p) <- true) (pattern_sinks rule.pattern);
    let viable (b : Match.binding) =
      incr epoch;
      List.iter (fun (_, a) -> in_image.(a) <- !epoch) b.nodes;
      List.for_all
        (fun (p, a) ->
          if p_const.(p) then is_const.(a)
          else
            (not covered.(a))
            && (* interior results must stay inside the match *)
            (p_sink.(p)
            || List.for_all (fun s -> in_image.(s) = !epoch) succs.(a)))
        b.nodes
      && (* inputs must not be constants: the $-variants cover those *)
      List.for_all (fun (_, a) -> not is_const.(a)) b.inputs
      && acyclic_with (List.map snd b.nodes)
    in
    fun root ->
      if not covered.(root) then begin
        incr attempts;
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
                let g = !n_accepted in
                List.iter
                  (fun (p, a) ->
                    if p_compute.(p) then begin
                      covered.(a) <- true;
                      owner.(a) <- g;
                      members.(g) <- a :: members.(g)
                    end)
                  binding.nodes;
                incr n_accepted;
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
  (* one registry update per call: an increment per probe costs a lock
     and two table lookups under a store tally *)
  if !attempts > 0 then Counter.add "mapper.cover_attempts" !attempts;
  if !n_accepted > 0 then Counter.add "mapper.matches_accepted" !n_accepted;
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
