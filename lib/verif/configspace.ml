(* Configuration-space static analysis of a merged datapath.

   The config word of a [Datapath.t] (FU op selects, mux source
   selects, output selects — the space [n_config_bits] prices) is
   encoded as a SAT instance over select literals, and three families
   of facts are derived from it:

   - reachability: every FU, mux arm, Creg and edge either
     participates in at least one registered pattern config or is
     flagged unreachable; every registered config must itself be
     realizable as an assignment of the legality constraints (an UNSAT
     registered config is a merge bug);
   - mutual exclusion: FU pairs and cliques never active in the same
     registered config — the machine-readable gating report the energy
     model consumes as a clock-gating discount and a future
     heterogeneous-portfolio partitioner can seed from;
   - validated pruning: unreachable resources are deleted and every
     registered config is re-proved equivalent on the pruned datapath
     (random differential evaluation first, then an SMT equivalence
     proof per config), with the same discharge discipline as [Opt]
     and [Width.infer]: revert-to-original on any failed proof, guard
     budget awareness, and a [configspace-smt-exhaust] fault site that
     degrades the proofs to differential evidence only. *)

module Op = Apex_dfg.Op
module D = Apex_merging.Datapath
module Sat = Apex_smt.Sat
module Bv = Apex_smt.Bv
module Json = Apex_telemetry.Json
module Counter = Apex_telemetry.Counter
module Outcome = Apex_guard.Outcome

type resource =
  | Fu_r of int
  | Creg_r of int
  | Port_r of int
  | Edge_r of { src : int; dst : int; port : int }

type cls = Dead | Encodable

let resource_key = function
  | Fu_r i -> (0, i, 0, 0)
  | Creg_r i -> (1, i, 0, 0)
  | Port_r i -> (2, i, 0, 0)
  | Edge_r { src; dst; port } -> (3, src, dst, port)

let compare_resource a b = compare (resource_key a) (resource_key b)

let pp_resource ppf = function
  | Fu_r i -> Format.fprintf ppf "fu %d" i
  | Creg_r i -> Format.fprintf ppf "creg %d" i
  | Port_r i -> Format.fprintf ppf "port %d" i
  | Edge_r { src; dst; port } ->
      Format.fprintf ppf "edge %d->%d.%d" src dst port

type survey = {
  realizable : string list;
  unrealizable : string list;
  unknown : string list;
  unreachable : (resource * cls) list;
  bits_total : int;
  bits_reachable : int;
  excl_pairs : (int * int) list;
  cliques : int list list;
  gated : int list;
}

type report = {
  label : string;
  n_configs : int;
  survey : survey;
  pruned_nodes : int;
  pruned_edges : int;
  proofs_proved : int;
  proofs_tested : int;
  reverted : bool;
  degraded : bool;
}

(* --- the legality encoding ---

   One SAT variable per select decision:
   - A_f       FU [f] is active,
   - O_{f,op}  FU [f] decodes operation [op] (exactly one iff active),
   - S_{d,p,s} port [p] of [d] selects static source [s] (exactly one
               iff some active op of [d] reads port [p]),
   - T_{pos,n} output position [pos] exposes node [n] (at most one;
               candidates are [Datapath.output_candidates], the menu
               [n_config_bits] prices).
   A selected source that is an FU must itself be active.  The solver
   is fresh per query — instances are tiny and queries independent. *)

type enc = {
  sat : Sat.t;
  active : int option array;
  op_sel : (int * Op.t, int) Hashtbl.t;
  src_sel : (int * int * int, int) Hashtbl.t;
  out_sel : (int * int, int) Hashtbl.t;
}

let max_arity menu = List.fold_left (fun a op -> max a (Op.arity op)) 0 menu

let at_most_one sat vars =
  List.iteri
    (fun i vi ->
      List.iteri
        (fun j vj ->
          if j > i then Sat.add_clause sat [ Sat.neg vi; Sat.neg vj ])
        vars)
    vars

let encode (dp : D.t) =
  let sat = Sat.create () in
  let n = Array.length dp.D.nodes in
  let active = Array.make n None in
  Array.iter
    (fun (nd : D.node) ->
      match nd.D.kind with
      | D.Fu _ -> active.(nd.D.id) <- Some (Sat.new_var sat)
      | _ -> ())
    dp.D.nodes;
  let op_sel = Hashtbl.create 32 in
  let src_sel = Hashtbl.create 64 in
  let out_sel = Hashtbl.create 8 in
  Array.iter
    (fun (nd : D.node) ->
      match active.(nd.D.id) with
      | None -> ()
      | Some a ->
          let menu = D.fu_menu nd in
          let ovars =
            List.map
              (fun op ->
                let v = Sat.new_var sat in
                Hashtbl.replace op_sel (nd.D.id, op) v;
                Sat.add_clause sat [ Sat.neg v; Sat.pos a ];
                v)
              menu
          in
          Sat.add_clause sat (Sat.neg a :: List.map Sat.pos ovars);
          at_most_one sat ovars;
          for port = 0 to max_arity menu - 1 do
            (* U_{f,p} folded in directly: the port is read iff the
               decoded op has arity > p *)
            let u = Sat.new_var sat in
            let need = List.filter (fun op -> Op.arity op > port) menu in
            List.iter
              (fun op ->
                Sat.add_clause sat
                  [ Sat.neg (Hashtbl.find op_sel (nd.D.id, op)); Sat.pos u ])
              need;
            Sat.add_clause sat
              (Sat.neg u
              :: List.map
                   (fun op -> Sat.pos (Hashtbl.find op_sel (nd.D.id, op)))
                   need);
            let srcs = D.sources dp ~dst:nd.D.id ~port in
            let svars =
              List.map
                (fun s ->
                  let v = Sat.new_var sat in
                  Hashtbl.replace src_sel (nd.D.id, port, s) v;
                  Sat.add_clause sat [ Sat.neg v; Sat.pos u ];
                  (if s >= 0 && s < n then
                     match active.(s) with
                     | Some a_s -> Sat.add_clause sat [ Sat.neg v; Sat.pos a_s ]
                     | None -> ());
                  v)
                srcs
            in
            Sat.add_clause sat (Sat.neg u :: List.map Sat.pos svars);
            at_most_one sat svars
          done)
    dp.D.nodes;
  List.iter
    (fun (pos, cands) ->
      let tvars =
        List.map
          (fun node ->
            let v = Sat.new_var sat in
            Hashtbl.replace out_sel (pos, node) v;
            (if node >= 0 && node < n then
               match active.(node) with
               | Some a -> Sat.add_clause sat [ Sat.neg v; Sat.pos a ]
               | None -> ());
            v)
          cands
      in
      at_most_one sat tvars)
    (D.output_candidates dp);
  { sat; active; op_sel; src_sel; out_sel }

let query_budget = 50_000

let solve3 sat =
  match Sat.solve ~conflict_budget:query_budget sat with
  | Sat.Sat -> Some true
  | Sat.Unsat -> Some false
  | Sat.Unknown -> None

exception Unreal

(* Is the registered config decodable under the legality constraints?
   The config's meaningful select decisions (active ops, routes of
   ports its ops actually read, outputs) are asserted as units together
   with the inactivity of every other FU; a missing literal — an op
   outside the FU's menu, a route over a non-existent edge — is
   unrealizable outright.  Spurious routes at ports no active op reads
   are dead select encodings (APX030's business), not asserted here. *)
let config_realizable (dp : D.t) (cfg : D.config) =
  let e = encode dp in
  try
    List.iter
      (fun (f, op) ->
        match Hashtbl.find_opt e.op_sel (f, op) with
        | Some v -> Sat.add_clause e.sat [ Sat.pos v ]
        | None -> raise Unreal)
      cfg.D.fu_ops;
    Array.iteri
      (fun id a ->
        match a with
        | Some a when not (List.mem_assoc id cfg.D.fu_ops) ->
            Sat.add_clause e.sat [ Sat.neg a ]
        | _ -> ())
      e.active;
    List.iter
      (fun (f, op) ->
        for port = 0 to Op.arity op - 1 do
          match List.assoc_opt (f, port) cfg.D.routes with
          | None -> raise Unreal
          | Some s -> (
              match Hashtbl.find_opt e.src_sel (f, port, s) with
              | Some v -> Sat.add_clause e.sat [ Sat.pos v ]
              | None -> raise Unreal)
        done)
      cfg.D.fu_ops;
    List.iter
      (fun (pos, node) ->
        match Hashtbl.find_opt e.out_sel (pos, node) with
        | Some v -> Sat.add_clause e.sat [ Sat.pos v ]
        | None -> raise Unreal)
      cfg.D.outputs;
    solve3 e.sat
  with Unreal -> Some false

let fu_activatable (dp : D.t) f =
  if f < 0 || f >= Array.length dp.D.nodes then Some false
  else
    let e = encode dp in
    match e.active.(f) with
    | None -> Some false
    | Some a ->
        Sat.add_clause e.sat [ Sat.pos a ];
        solve3 e.sat

(* a non-FU node is observable iff some legal assignment selects it as
   a source or as an exposed output *)
let source_activatable (dp : D.t) id =
  let e = encode dp in
  let lits = ref [] in
  Hashtbl.iter
    (fun (_, _, s) v -> if s = id then lits := Sat.pos v :: !lits)
    e.src_sel;
  Hashtbl.iter
    (fun (_, node) v -> if node = id then lits := Sat.pos v :: !lits)
    e.out_sel;
  match List.sort compare !lits with
  | [] -> Some false
  | lits ->
      Sat.add_clause e.sat lits;
      solve3 e.sat

let edge_activatable (dp : D.t) ~src ~dst ~port =
  let e = encode dp in
  match Hashtbl.find_opt e.src_sel (dst, port, src) with
  | None -> Some false
  | Some v ->
      Sat.add_clause e.sat [ Sat.pos v ];
      solve3 e.sat

(* --- reachability: participation in registered configs --- *)

let usage (dp : D.t) =
  let n = Array.length dp.D.nodes in
  let node_used = Array.make n false in
  let mark id = if id >= 0 && id < n then node_used.(id) <- true in
  let edge_used = Hashtbl.create 64 in
  List.iter
    (fun (c : D.config) ->
      List.iter (fun (f, _) -> mark f) c.D.fu_ops;
      List.iter
        (fun ((d, p), s) ->
          mark d;
          mark s;
          Hashtbl.replace edge_used (s, d, p) ())
        c.D.routes;
      List.iter (fun (_, port) -> mark port) c.D.inputs;
      List.iter (fun (_, node) -> mark node) c.D.outputs)
    dp.D.configs;
  (node_used, edge_used)

let unreachable_resources (dp : D.t) (node_used, edge_used) =
  let nodes =
    Array.to_list dp.D.nodes
    |> List.filter_map (fun (nd : D.node) ->
           if node_used.(nd.D.id) then None
           else
             match nd.D.kind with
             | D.Fu _ -> Some (Fu_r nd.D.id)
             | D.Creg -> Some (Creg_r nd.D.id)
             | D.In_port | D.Bit_in_port -> Some (Port_r nd.D.id))
  in
  let edges =
    List.filter_map
      (fun (e : D.edge) ->
        if Hashtbl.mem edge_used (e.D.src, e.D.dst, e.D.port) then None
        else Some (Edge_r { src = e.D.src; dst = e.D.dst; port = e.D.port }))
      dp.D.edges
  in
  List.sort_uniq compare_resource (nodes @ edges)

(* SAT classifies what reachability flagged: a resource no registered
   config uses is either dead (no legal assignment can observe it —
   pure fabric waste) or encodable (some assignment outside the
   registered set reaches it — config-bit over-encoding).  The budget
   answer Unknown conservatively classifies as encodable. *)
let classify dp r =
  let sat_says =
    match r with
    | Fu_r f -> fu_activatable dp f
    | Creg_r id | Port_r id -> source_activatable dp id
    | Edge_r { src; dst; port } -> edge_activatable dp ~src ~dst ~port
  in
  match sat_says with Some false -> Dead | Some true | None -> Encodable

(* --- mutual exclusion over registered configs --- *)

let exclusion (dp : D.t) =
  let n = Array.length dp.D.nodes in
  let used = Array.make n false in
  let co = Hashtbl.create 64 in
  List.iter
    (fun (c : D.config) ->
      let act =
        List.filter_map
          (fun (f, _) -> if f >= 0 && f < n then Some f else None)
          c.D.fu_ops
        |> List.sort_uniq compare
      in
      List.iter (fun f -> used.(f) <- true) act;
      List.iter
        (fun i -> List.iter (fun j -> if i < j then Hashtbl.replace co (i, j) ()) act)
        act)
    dp.D.configs;
  let fus =
    Array.to_list dp.D.nodes
    |> List.filter_map (fun (nd : D.node) ->
           match nd.D.kind with
           | D.Fu _ when used.(nd.D.id) -> Some nd.D.id
           | _ -> None)
  in
  let excl i j =
    let i, j = if i < j then (i, j) else (j, i) in
    not (Hashtbl.mem co (i, j))
  in
  let pairs =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if i < j && excl i j then Some (i, j) else None)
          fus)
      fus
  in
  (* greedy first-fit in id order: deterministic, and good enough to
     seed gating — an FU inside any >=2 clique shares its activity
     slot with another FU, so at most one of them switches per cycle *)
  let cliques = ref [] in
  List.iter
    (fun f ->
      let rec place = function
        | [] -> cliques := !cliques @ [ ref [ f ] ]
        | c :: rest ->
            if List.for_all (fun m -> excl f m) !c then c := f :: !c
            else place rest
      in
      place !cliques)
    fus;
  let cliques =
    List.filter_map
      (fun c ->
        let members = List.sort compare !c in
        if List.length members >= 2 then Some members else None)
      !cliques
  in
  (pairs, cliques)

let exclusion_cliques dp = snd (exclusion dp)

let gated_fus dp =
  List.sort_uniq compare (List.concat (exclusion_cliques dp))

let gated_predicate dp =
  let g = gated_fus dp in
  fun id -> List.mem id g

(* --- pruning --- *)

let prune (dp : D.t) (node_used, edge_used) =
  let n = Array.length dp.D.nodes in
  let remap = Array.make n (-1) in
  let kept = ref [] in
  let next = ref 0 in
  Array.iter
    (fun (nd : D.node) ->
      if node_used.(nd.D.id) then begin
        remap.(nd.D.id) <- !next;
        kept := { nd with D.id = !next } :: !kept;
        incr next
      end)
    dp.D.nodes;
  let nodes = Array.of_list (List.rev !kept) in
  let edges =
    List.filter_map
      (fun (e : D.edge) ->
        if Hashtbl.mem edge_used (e.D.src, e.D.dst, e.D.port) then
          Some { D.src = remap.(e.D.src); dst = remap.(e.D.dst); port = e.D.port }
        else None)
      dp.D.edges
  in
  let rm id = remap.(id) in
  let configs =
    List.map
      (fun (c : D.config) ->
        { c with
          D.fu_ops = List.map (fun (f, op) -> (rm f, op)) c.D.fu_ops;
          routes = List.map (fun ((d, p), s) -> ((rm d, p), rm s)) c.D.routes;
          consts =
            List.filter_map
              (fun (cr, v) ->
                if cr >= 0 && cr < n && node_used.(cr) then Some (rm cr, v)
                else None)
              c.D.consts;
          inputs = List.map (fun (pi, port) -> (pi, rm port)) c.D.inputs;
          outputs = List.map (fun (pos, node) -> (pos, rm node)) c.D.outputs })
      dp.D.configs
  in
  ({ D.nodes; edges; configs }, remap)

(* --- per-config equivalence of the pruned datapath --- *)

let input_ports (dp : D.t) =
  Array.to_list dp.D.nodes
  |> List.filter_map (fun (nd : D.node) ->
         match nd.D.kind with
         | D.In_port | D.Bit_in_port -> Some nd
         | _ -> None)

let differential_vectors = 8

(* rung 1: random 16-bit differential evaluation.  The environment
   binds every input port of the original datapath; the pruned side
   sees the same values through the id remap.  Both sides rejecting a
   configuration (e.g. one with no realizable route) also counts as
   agreement — pruning must preserve behavior, including failures. *)
let differential (dp : D.t) (dp' : D.t) remap (cfg : D.config)
    (cfg' : D.config) =
  let st = Random.State.make [| 0xc0f6; Hashtbl.hash cfg.D.label |] in
  let ports = input_ports dp in
  let ok = ref true in
  (try
     for _ = 1 to differential_vectors do
       Apex_guard.tick ();
       let env =
         List.map
           (fun (nd : D.node) ->
             let v =
               match nd.D.kind with
               | D.Bit_in_port -> Random.State.int st 2
               | _ -> Random.State.int st 0x10000
             in
             (nd.D.id, v))
           ports
       in
       let env' =
         List.filter_map
           (fun (id, v) ->
             if remap.(id) >= 0 then Some (remap.(id), v) else None)
           env
       in
       let run dp cfg env =
         try Result.Ok (List.sort compare (D.evaluate dp cfg ~env))
         with Invalid_argument _ -> Result.Error ()
       in
       match (run dp cfg env, run dp' cfg' env') with
       | Result.Ok a, Result.Ok b ->
           if a <> b then begin
             ok := false;
             raise Exit
           end
       | Result.Error (), Result.Error () -> ()
       | _ ->
           ok := false;
           raise Exit
     done
   with Exit -> ());
  !ok

let proof_budget = 200_000

(* rung 2: SMT equivalence at the rule-verification width.  Each input
   port of the original datapath gets a fresh vector shared with its
   remapped twin, both sides are encoded by [Verify.encode_datapath],
   and "some output position differs" must be UNSAT. *)
let smt_equiv (dp : D.t) (dp' : D.t) remap (cfg : D.config) (cfg' : D.config) =
  let ctx = Bv.create ~word_width:8 () in
  let width (nd : D.node) =
    match nd.D.kind with D.Bit_in_port -> 1 | _ -> Bv.word_width ctx
  in
  let port_bvs =
    List.map (fun (nd : D.node) -> (nd.D.id, Bv.fresh ctx (width nd)))
      (input_ports dp)
  in
  let port_bvs' =
    List.filter_map
      (fun (id, bv) -> if remap.(id) >= 0 then Some (remap.(id), bv) else None)
      port_bvs
  in
  match
    let a = Verify.encode_datapath ctx dp cfg port_bvs in
    let b = Verify.encode_datapath ctx dp' cfg' port_bvs' in
    (a, b)
  with
  | exception (Failure _ | Invalid_argument _) ->
      (* a config neither side can encode (broken route set): the
         differential rung already established both sides agree *)
      `Tested
  | a, b ->
      if List.length a <> List.length b then `Refuted
      else begin
        Bv.assert_not_equal ctx a b;
        match Sat.solve ~conflict_budget:proof_budget (Bv.sat ctx) with
        | Sat.Unsat -> `Proved
        | Sat.Unknown -> `Tested
        | Sat.Sat -> `Refuted
      end

(* --- the full analysis --- *)

let survey (dp : D.t) =
  let realizable = ref [] and unrealizable = ref [] and unknown = ref [] in
  List.iter
    (fun (c : D.config) ->
      Apex_guard.tick ();
      match config_realizable dp c with
      | Some true -> realizable := c.D.label :: !realizable
      | Some false -> unrealizable := c.D.label :: !unrealizable
      | None -> unknown := c.D.label :: !unknown)
    dp.D.configs;
  let use = usage dp in
  let unreachable =
    List.map
      (fun r ->
        Apex_guard.tick ();
        (r, classify dp r))
      (unreachable_resources dp use)
  in
  let bits_total = D.n_config_bits dp in
  let bits_reachable =
    if unreachable = [] then bits_total
    else D.n_config_bits (fst (prune dp use))
  in
  let excl_pairs, cliques = exclusion dp in
  { realizable = List.rev !realizable;
    unrealizable = List.rev !unrealizable;
    unknown = List.rev !unknown;
    unreachable;
    bits_total;
    bits_reachable;
    excl_pairs;
    cliques;
    gated = List.sort_uniq compare (List.concat cliques) }

let empty_survey dp =
  let bits = D.n_config_bits dp in
  { realizable = []; unrealizable = []; unknown = []; unreachable = [];
    bits_total = bits; bits_reachable = bits; excl_pairs = []; cliques = [];
    gated = [] }

let record_counters (r : report) =
  Counter.add "analysis.configspace.configs_checked" r.n_configs;
  Counter.add "analysis.configspace.configs_realizable"
    (List.length r.survey.realizable);
  Counter.add "analysis.configspace.configs_unrealizable"
    (List.length r.survey.unrealizable);
  Counter.add "analysis.configspace.unreachable_dead"
    (List.length (List.filter (fun (_, c) -> c = Dead) r.survey.unreachable));
  Counter.add "analysis.configspace.unreachable_encodable"
    (List.length
       (List.filter (fun (_, c) -> c = Encodable) r.survey.unreachable));
  Counter.add "analysis.configspace.pruned_nodes" r.pruned_nodes;
  Counter.add "analysis.configspace.pruned_edges" r.pruned_edges;
  Counter.add "analysis.configspace.config_bits_saved"
    (r.survey.bits_total - r.survey.bits_reachable);
  Counter.add "analysis.configspace.excl_pairs"
    (List.length r.survey.excl_pairs);
  Counter.add "analysis.configspace.gated_fus" (List.length r.survey.gated);
  Counter.add "analysis.configspace.proofs_proved" r.proofs_proved;
  Counter.add "analysis.configspace.proofs_tested" r.proofs_tested;
  Counter.add "analysis.configspace.proofs_reverted"
    (if r.reverted then 1 else 0)

let analyze ?(label = "datapath") (dp : D.t) =
  Apex_guard.with_phase "analysis" @@ fun () ->
  Counter.incr "analysis.configspace.checks_run";
  (* one firing poisons the whole analysis, like width-smt-exhaust:
     every equivalence proof degrades to differential evidence and the
     outcome is recorded degraded — but the pruned datapath itself is
     identical to the fault-free run's *)
  let smt_down = Apex_guard.Fault.fire "configspace-smt-exhaust" in
  let outcome =
    ref
      (if smt_down then Outcome.Degraded (Outcome.Fault "configspace-smt-exhaust")
       else Outcome.Exact)
  in
  let report, out_dp =
    match
      if dp.D.configs = [] then
        (* a configless datapath has no registered behavior to preserve:
           nothing to check, nothing safe to prune *)
        ({ label; n_configs = 0; survey = empty_survey dp; pruned_nodes = 0;
           pruned_edges = 0; proofs_proved = 0; proofs_tested = 0;
           reverted = false; degraded = smt_down },
         dp)
      else begin
        let sv = survey dp in
        let use = usage dp in
        let pruned, remap = prune dp use in
        let pruned_nodes =
          Array.length dp.D.nodes - Array.length pruned.D.nodes
        in
        let pruned_edges =
          List.length dp.D.edges - List.length pruned.D.edges
        in
        if pruned_nodes = 0 && pruned_edges = 0 then
          ({ label; n_configs = List.length dp.D.configs; survey = sv;
             pruned_nodes = 0; pruned_edges = 0; proofs_proved = 0;
             proofs_tested = 0; reverted = false; degraded = smt_down },
           dp)
        else begin
          let proved = ref 0 and tested = ref 0 in
          let ok =
            List.for_all2
              (fun cfg cfg' ->
                Apex_guard.tick ();
                if not (differential dp pruned remap cfg cfg') then false
                else if smt_down then begin
                  incr tested;
                  true
                end
                else
                  match smt_equiv dp pruned remap cfg cfg' with
                  | `Proved ->
                      incr proved;
                      true
                  | `Tested ->
                      incr tested;
                      true
                  | `Refuted -> false)
              dp.D.configs pruned.D.configs
          in
          if ok then
            ({ label; n_configs = List.length dp.D.configs; survey = sv;
               pruned_nodes; pruned_edges; proofs_proved = !proved;
               proofs_tested = !tested; reverted = false; degraded = smt_down },
             pruned)
          else
            (* any config the pruned datapath cannot be proved (or even
               tested) equivalent on means the pruner is wrong about
               this datapath: revert everything, keep the facts *)
            ({ label; n_configs = List.length dp.D.configs; survey = sv;
               pruned_nodes = 0; pruned_edges = 0; proofs_proved = !proved;
               proofs_tested = !tested; reverted = true; degraded = smt_down },
             dp)
        end
      end
    with
    | result -> result
    | exception Apex_guard.Cancelled _ ->
        outcome := Outcome.Degraded Outcome.Deadline;
        ( { label; n_configs = List.length dp.D.configs;
            survey = empty_survey dp; pruned_nodes = 0; pruned_edges = 0;
            proofs_proved = 0; proofs_tested = 0; reverted = false;
            degraded = true },
          dp )
  in
  Outcome.record ~phase:"analysis" !outcome;
  record_counters report;
  (report, out_dp)

(* --- report rendering --- *)

let cls_to_string = function Dead -> "dead" | Encodable -> "encodable"

let resource_to_json (r, c) =
  let base =
    match r with
    | Fu_r id -> [ ("kind", Json.String "fu"); ("id", Json.Int id) ]
    | Creg_r id -> [ ("kind", Json.String "creg"); ("id", Json.Int id) ]
    | Port_r id -> [ ("kind", Json.String "port"); ("id", Json.Int id) ]
    | Edge_r { src; dst; port } ->
        [ ("kind", Json.String "edge"); ("src", Json.Int src);
          ("dst", Json.Int dst); ("port", Json.Int port) ]
  in
  Json.Obj (base @ [ ("class", Json.String (cls_to_string c)) ])

let report_to_json (r : report) =
  let s = r.survey in
  Json.Obj
    [ ("label", Json.String r.label);
      ("configs", Json.Int r.n_configs);
      ("realizable", Json.Int (List.length s.realizable));
      ("unrealizable", Json.List (List.map (fun l -> Json.String l) s.unrealizable));
      ("unknown", Json.List (List.map (fun l -> Json.String l) s.unknown));
      ("unreachable", Json.List (List.map resource_to_json s.unreachable));
      ( "pruned",
        Json.Obj
          [ ("nodes", Json.Int r.pruned_nodes);
            ("edges", Json.Int r.pruned_edges);
            ("config_bits_before", Json.Int s.bits_total);
            ("config_bits_after", Json.Int s.bits_reachable) ] );
      ( "exclusion",
        Json.Obj
          [ ("pairs", Json.Int (List.length s.excl_pairs));
            ( "cliques",
              Json.List
                (List.map
                   (fun c -> Json.List (List.map (fun f -> Json.Int f) c))
                   s.cliques) );
            ("gated_fus", Json.List (List.map (fun f -> Json.Int f) s.gated)) ] );
      ( "proofs",
        Json.Obj
          [ ("proved", Json.Int r.proofs_proved);
            ("tested", Json.Int r.proofs_tested);
            ("reverted", Json.Bool r.reverted) ] );
      ("degraded", Json.Bool r.degraded) ]

let pp_report ppf (r : report) =
  let s = r.survey in
  Format.fprintf ppf "@[<v>%s: %d configs, %d realizable" r.label r.n_configs
    (List.length s.realizable);
  if s.unrealizable <> [] then
    Format.fprintf ppf ", %d UNREALIZABLE (%s)" (List.length s.unrealizable)
      (String.concat ", " s.unrealizable);
  if s.unknown <> [] then
    Format.fprintf ppf ", %d unknown" (List.length s.unknown);
  Format.fprintf ppf "@,  unreachable: %d (%d dead, %d encodable)"
    (List.length s.unreachable)
    (List.length (List.filter (fun (_, c) -> c = Dead) s.unreachable))
    (List.length (List.filter (fun (_, c) -> c = Encodable) s.unreachable));
  List.iter
    (fun (res, c) ->
      Format.fprintf ppf "@,    %a [%s]" pp_resource res (cls_to_string c))
    s.unreachable;
  Format.fprintf ppf
    "@,  pruned: %d nodes, %d edges; config bits %d -> %d%s" r.pruned_nodes
    r.pruned_edges s.bits_total s.bits_reachable
    (if r.reverted then " (REVERTED)" else "");
  Format.fprintf ppf "@,  exclusion: %d pairs, %d cliques, %d gated FUs"
    (List.length s.excl_pairs)
    (List.length s.cliques)
    (List.length s.gated);
  Format.fprintf ppf "@,  proofs: %d proved, %d tested%s@]" r.proofs_proved
    r.proofs_tested
    (if r.degraded then " (degraded: SMT unavailable)" else "")
