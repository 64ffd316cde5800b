(* Merged-datapath verification.

   Structure first (edges, FU op sets, static acyclicity), then per-config
   invariants: routes over existing edges, exhaustive mux selects on every
   active port, and — for configs whose label names a merged pattern —
   exact coverage of the pattern's compute nodes and functional agreement
   with the golden interpreter on random vectors (the "merged datapath
   still realizes both source graphs" check of Section 3.3). *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Interp = Apex_dfg.Interp
module Pattern = Apex_mining.Pattern
module Dp = Apex_merging.Datapath
module Tech = Apex_models.Tech
module D = Diagnostic

let functional_vectors = 8

let in_range dp id = id >= 0 && id < Array.length dp.Dp.nodes

let is_fu dp id =
  in_range dp id
  && match dp.Dp.nodes.(id).Dp.kind with Dp.Fu _ -> true | _ -> false

let structure (dp : Dp.t) emit =
  let n = Array.length dp.Dp.nodes in
  Array.iteri
    (fun i (nd : Dp.node) ->
      (if nd.Dp.id <> i then
         emit
           (D.errorf ~loc:(D.Node i) ~code:"APX020"
              "carries id %d but sits at index %d" nd.Dp.id i));
      match nd.Dp.kind with
      | Dp.Fu k ->
          if nd.Dp.ops = [] then
            emit
              (D.errorf ~loc:(D.Node i) ~code:"APX021"
                 "functional unit of kind %S supports no operations" k)
          else
            List.iter
              (fun op ->
                if not (String.equal (Op.kind op) k) then
                  emit
                    (D.errorf ~loc:(D.Node i) ~code:"APX021"
                       "op %s is of kind %S, not the FU's kind %S"
                       (Op.mnemonic op) (Op.kind op) k))
              nd.Dp.ops
      | Dp.Creg | Dp.In_port | Dp.Bit_in_port -> ())
    dp.Dp.nodes;
  let seen_edges = Hashtbl.create 64 in
  List.iter
    (fun (e : Dp.edge) ->
      let loc = D.Edge { src = e.Dp.src; dst = e.Dp.dst; port = e.Dp.port } in
      if not (in_range dp e.Dp.src && in_range dp e.Dp.dst) then
        emit (D.errorf ~loc ~code:"APX020" "endpoint out of range (%d nodes)" n)
      else if not (is_fu dp e.Dp.dst) then
        emit
          (D.errorf ~loc ~code:"APX020"
             "ends on a non-FU node; only functional units have input ports")
      else begin
        let key = (e.Dp.src, e.Dp.dst, e.Dp.port) in
        if Hashtbl.mem seen_edges key then
          emit (D.errorf ~loc ~code:"APX020" "duplicate edge")
        else Hashtbl.replace seen_edges key ()
      end)
    dp.Dp.edges;
  (* static acyclicity via Kahn's algorithm on deduplicated edges *)
  let pairs =
    List.filter_map
      (fun (e : Dp.edge) ->
        if in_range dp e.Dp.src && in_range dp e.Dp.dst then
          Some (e.Dp.src, e.Dp.dst)
        else None)
      dp.Dp.edges
    |> List.sort_uniq compare
  in
  let indeg = Array.make (max n 1) 0 in
  let out = Array.make (max n 1) [] in
  List.iter
    (fun (s, d) ->
      indeg.(d) <- indeg.(d) + 1;
      out.(s) <- d :: out.(s))
    pairs;
  let q = Queue.create () in
  Array.iteri (fun i d -> if i < n && d = 0 then Queue.add i q) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    incr seen;
    List.iter
      (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d q)
      out.(v)
  done;
  if !seen < n then
    emit
      (D.errorf ~code:"APX022"
         "static cycle through %d node%s (merging must keep the datapath a DAG)"
         (n - !seen)
         (if n - !seen = 1 then "" else "s"))

(* A registered config fixes every select decision, so whether it
   decodes under Configspace's legality encoding reduces to structural
   conditions; APX023/APX024 check all of them, no solver needed. *)
let config_checks ~loc (dp : Dp.t) (cfg : Dp.config) emit =
  let active = Hashtbl.create 8 in
  List.iter
    (fun (fu, op) ->
      if not (is_fu dp fu) then
        emit (D.errorf ~loc ~code:"APX023" "activates node %d, not an FU" fu)
      else begin
        if Hashtbl.mem active fu then
          emit (D.errorf ~loc ~code:"APX023" "activates FU %d twice" fu);
        Hashtbl.replace active fu op;
        if not (List.mem op dp.Dp.nodes.(fu).Dp.ops) then
          emit
            (D.errorf ~loc ~code:"APX023" "FU %d does not support op %s" fu
               (Op.mnemonic op))
      end)
    cfg.Dp.fu_ops;
  List.iter
    (fun ((dst, port), src) ->
      if
        not
          (List.exists
             (fun (e : Dp.edge) ->
               e.Dp.src = src && e.Dp.dst = dst && e.Dp.port = port)
             dp.Dp.edges)
      then
        emit
          (D.errorf ~loc ~code:"APX023" "routes a missing edge %d->%d.%d" src
             dst port)
      else if not (Hashtbl.mem active dst) then
        emit
          (D.notef ~loc ~code:"APX030"
             "routes port %d.%d of an inactive node (dead select encoding)"
             dst port)
      else if
        in_range dp src
        && is_fu dp src
        && not (Hashtbl.mem active src)
      then
        emit
          (D.errorf ~loc ~code:"APX023"
             "port %d.%d is driven by FU %d, which the config leaves inactive"
             dst port src))
    cfg.Dp.routes;
  (* exhaustive selects: every port of every active FU must have a route *)
  Hashtbl.iter
    (fun fu op ->
      for port = 0 to Op.arity op - 1 do
        if not (List.mem_assoc (fu, port) cfg.Dp.routes) then
          emit
            (D.errorf ~loc ~code:"APX024"
               "active FU %d (%s) has no route for port %d" fu
               (Op.mnemonic op) port)
      done)
    active;
  List.iter
    (fun (creg, v) ->
      if
        in_range dp creg
        && dp.Dp.nodes.(creg).Dp.kind <> Dp.Creg
      then
        emit
          (D.errorf ~loc ~code:"APX023"
             "assigns a constant to node %d, not a constant register" creg);
      if v land 0xffff <> v then
        emit
          (D.errorf ~loc ~code:"APX028"
             "constant register %d holds %d, outside 16 bits" creg v))
    cfg.Dp.consts;
  let exposed = Hashtbl.create 4 in
  List.iter
    (fun (pos, node) ->
      if not (in_range dp node) then
        emit (D.errorf ~loc ~code:"APX023" "exposes non-existent node %d" node)
      else if is_fu dp node && not (Hashtbl.mem active node) then
        emit
          (D.errorf ~loc ~code:"APX023"
             "exposes FU %d, which the config leaves inactive" node);
      match Hashtbl.find_opt exposed pos with
      | Some other when other <> node ->
          emit
            (D.errorf ~loc ~code:"APX023"
               "exposes two nodes (%d and %d) at output position %d" other
               node pos)
      | Some _ -> ()
      | None -> Hashtbl.replace exposed pos node)
    cfg.Dp.outputs

(* Random-vector realization check shared with the rule linter: does the
   configured datapath agree with the golden interpretation of the
   pattern?  Returns a description of the first disagreement. *)
let functional_mismatch (dp : Dp.t) (cfg : Dp.config) (p : Pattern.t) =
  let pg = Pattern.graph p in
  let st = Random.State.make [| 0x11ce; Hashtbl.hash cfg.Dp.label |] in
  let mismatch = ref None in
  (try
     for _ = 1 to functional_vectors do
       if !mismatch = None then begin
         let env_named = Interp.random_env st pg in
         let golden = Interp.run pg env_named in
         let dp_env =
           List.map
             (fun (pat_input, port) ->
               let name =
                 match (G.node pg pat_input).op with
                 | Op.Input s | Op.Bit_input s -> s
                 | op ->
                     raise
                       (Invalid_argument
                          (Printf.sprintf
                             "input binding names node %d (%s), not an input"
                             pat_input (Op.mnemonic op)))
               in
               (port, List.assoc name env_named))
             cfg.Dp.inputs
         in
         (* the flow's convention (cf. Verify.encode_datapath): the
            config's outputs, sorted by position, pair with the
            pattern's io_outputs in declaration order *)
         let actual = List.sort compare (Dp.evaluate dp cfg ~env:dp_env) in
         if List.length actual <> List.length golden then begin
           if !mismatch = None then
             mismatch :=
               Some
                 (Printf.sprintf "config exposes %d outputs, pattern has %d"
                    (List.length actual) (List.length golden))
         end
         else
           List.iter2
             (fun (name, want) (pos, got) ->
               if got <> want && !mismatch = None then
                 mismatch :=
                   Some
                     (Printf.sprintf "output %s (position %d): got %d, want %d"
                        name pos got want))
             golden actual
       end
     done
   with
  | Failure m | Invalid_argument m ->
      if !mismatch = None then mismatch := Some ("evaluation failed: " ^ m)
  | Not_found ->
      if !mismatch = None then
        mismatch := Some "evaluation failed: unbound input name");
  !mismatch

(* coverage + functional realization for configs that implement a mined
   pattern (matched by canonical code = config label); evaluating a
   config that failed its own checks would only echo those findings *)
let pattern_checks ~clean (dp : Dp.t) (cfg : Dp.config) (p : Pattern.t) emit =
  let loc = D.Config cfg.Dp.label in
  let pg = Pattern.graph p in
  let compute =
    Array.to_list (G.nodes pg)
    |> List.filter (fun (nd : G.node) -> Op.is_compute nd.op)
  in
  let ok_coverage =
    if List.length compute <> List.length cfg.Dp.fu_ops then begin
      emit
        (D.errorf ~loc ~code:"APX025"
           "pattern has %d compute nodes but the config activates %d FUs"
           (List.length compute)
           (List.length cfg.Dp.fu_ops));
      false
    end
    else begin
      let distinct =
        List.sort_uniq compare (List.map fst cfg.Dp.fu_ops)
      in
      if List.length distinct <> List.length cfg.Dp.fu_ops then begin
        emit
          (D.errorf ~loc ~code:"APX025"
             "two pattern nodes share one active FU (coverage not exactly \
              once)");
        false
      end
      else begin
        (* positional pairing: k-th compute node <-> k-th fu_op, an
           invariant Mapper.cover relies on *)
        let mismatches =
          List.map2
            (fun (nd : G.node) (_, op) -> (nd, op))
            compute cfg.Dp.fu_ops
          |> List.filter (fun ((nd : G.node), op) -> not (Op.equal nd.op op))
        in
        List.iter
          (fun ((nd : G.node), op) ->
            emit
              (D.errorf ~loc ~code:"APX025"
                 "pattern node %d computes %s but its paired FU runs %s"
                 nd.id (Op.mnemonic nd.op) (Op.mnemonic op)))
          mismatches;
        mismatches = []
      end
    end
  in
  if ok_coverage && clean then
    match functional_mismatch dp cfg p with
    | Some m ->
        emit (D.errorf ~loc ~code:"APX026" "does not realize its pattern: %s" m)
    | None -> ()

let cost_model (dp : Dp.t) emit =
  Array.iter
    (fun (nd : Dp.node) ->
      match nd.Dp.kind with
      | Dp.Fu k ->
          let loc = D.Node nd.Dp.id in
          (match Tech.kind_cost k with
          | c ->
              if not (Float.is_finite c.Tech.area && c.Tech.area > 0.0) then
                emit
                  (D.errorf ~loc ~code:"APX029"
                     "kind %S has a non-positive area model" k)
          | exception _ ->
              emit (D.errorf ~loc ~code:"APX029" "kind %S has no cost model" k));
          List.iter
            (fun op ->
              match Tech.op_cost op with
              | c ->
                  if
                    not
                      (Float.is_finite c.Tech.area
                      && Float.is_finite c.Tech.delay
                      && c.Tech.delay > 0.0)
                  then
                    emit
                      (D.errorf ~loc ~code:"APX029"
                         "op %s has a non-finite or non-positive cost model"
                         (Op.mnemonic op))
              | exception _ ->
                  emit
                    (D.errorf ~loc ~code:"APX029" "op %s has no cost model"
                       (Op.mnemonic op)))
            nd.Dp.ops
      | _ -> ())
    dp.Dp.nodes;
  match Dp.area dp with
  | a ->
      if not (Float.is_finite a && a > 0.0) then
        emit
          (D.errorf ~code:"APX029" "datapath area %g is not finite and positive"
             a)
  | exception _ -> emit (D.errorf ~code:"APX029" "area model evaluation failed")

let dead_fus (dp : Dp.t) emit =
  let used = Hashtbl.create 16 in
  List.iter
    (fun (cfg : Dp.config) ->
      List.iter (fun (fu, _) -> Hashtbl.replace used fu ()) cfg.Dp.fu_ops)
    dp.Dp.configs;
  Array.iter
    (fun (nd : Dp.node) ->
      match nd.Dp.kind with
      | Dp.Fu k when not (Hashtbl.mem used nd.Dp.id) ->
          emit
            (D.warnf ~loc:(D.Node nd.Dp.id) ~code:"APX027"
               "FU of kind %S is active in no configuration (dead area)" k)
      | _ -> ())
    dp.Dp.nodes

let run ?(patterns = []) (dp : Dp.t) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  structure dp emit;
  let structurally_sound =
    List.for_all (fun (d : D.t) -> d.D.severity <> D.Error) !diags
  in
  let by_code = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace by_code (Pattern.code p) p) patterns;
  List.iter
    (fun (cfg : Dp.config) ->
      let before = List.length !diags in
      config_checks ~loc:(D.Config cfg.Dp.label) dp cfg emit;
      let clean = List.length !diags = before in
      match Hashtbl.find_opt by_code cfg.Dp.label with
      | Some p when structurally_sound -> pattern_checks ~clean dp cfg p emit
      | _ -> ())
    dp.Dp.configs;
  if structurally_sound then cost_model dp emit;
  dead_fus dp emit;
  List.rev !diags
