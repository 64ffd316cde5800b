module Op = Apex_dfg.Op
module Tech = Apex_models.Tech
module Interconnect = Apex_models.Interconnect
module D = Datapath

type opportunity =
  | Node_merge of int * int
  | Edge_merge of D.edge * D.edge

type report = {
  n_opportunities : int;
  clique : opportunity list;
  clique_weight : float;
  optimal : bool;
  cycles_repaired : int;
}

type strategy = Max_weight_clique | Greedy_clique | No_sharing

let nodes_mergeable (a : D.node) (b : D.node) =
  match (a.kind, b.kind) with
  | D.Fu ka, D.Fu kb -> String.equal ka kb
  | D.Creg, D.Creg -> true
  | D.In_port, D.In_port -> true
  | D.Bit_in_port, D.Bit_in_port -> true
  | _ -> false

let all_commutative (n : D.node) =
  match n.kind with
  | D.Fu _ ->
      List.for_all (fun op -> Op.is_commutative op && Op.arity op = 2) n.ops
  | _ -> false

(* Area saved by applying a merge, under the width-aware model: two
   blocks of widths wa and wb collapse into one of width max(wa, wb),
   so the saving is the block at the *narrower* width (factor 1.0 when
   both sides are full 16-bit, reproducing the width-oblivious
   weights). *)
let node_weight (a : D.node) (b : D.node) =
  match (a.kind, b.kind) with
  | D.Fu k, D.Fu _ ->
      let block =
        (Tech.kind_cost k).area
        *. Tech.width_factor ~kind:k ~width:(min a.width b.width)
      in
      let slice =
        match b.ops with
        | [ op ] when not (List.mem op a.ops) -> Tech.op_slice op
        | _ -> 0.0
      in
      block -. slice
  | D.Creg, D.Creg ->
      Tech.const_register_cost.area
      *. Tech.width_factor ~kind:"creg" ~width:(min a.width b.width)
  | D.In_port, D.In_port -> (Interconnect.cb_cost Interconnect.default).area
  | D.Bit_in_port, D.Bit_in_port ->
      (Interconnect.cb_bit_cost Interconnect.default).area
  | _ -> 0.0

let edge_weight (dp : D.t) (ea : D.edge) =
  let w =
    match (D.result_width dp.nodes.(ea.src) : Op.width) with
    | Op.Word ->
        (* the shared wire is only as wide as its producer's live bits *)
        (Tech.word_mux_cost 2).area
        *. Tech.width_factor ~kind:"mux" ~width:dp.nodes.(ea.src).width
    | Op.Bit -> (Tech.word_mux_cost 2).area /. 16.0
  in
  w

let implied = function
  | Node_merge (a, b) -> [ (a, b) ]
  | Edge_merge (ea, eb) ->
      if ea.src = ea.dst then [ (ea.src, eb.src) ]
      else [ (ea.src, eb.src); (ea.dst, eb.dst) ]

let consistent pairs1 pairs2 =
  List.for_all
    (fun (a1, b1) ->
      List.for_all
        (fun (a2, b2) -> (a1 = a2) = (b1 = b2))
        pairs2)
    pairs1

let compatible o1 o2 =
  consistent (implied o1) (implied o2)
  &&
  match (o1, o2) with
  | Edge_merge (ea1, eb1), Edge_merge (ea2, eb2)
    when ea1.dst = ea2.dst && eb1.dst = eb2.dst ->
      (* same merged destination: operand ports must stay distinct *)
      ea1.port <> ea2.port && eb1.port <> eb2.port
  | _ -> true

let enumerate_opportunities (a : D.t) (b : D.t) =
  let node_ops = ref [] in
  Array.iter
    (fun na ->
      Array.iter
        (fun nb ->
          if nodes_mergeable na nb then
            node_ops := Node_merge (na.D.id, nb.D.id) :: !node_ops)
        b.nodes)
    a.nodes;
  let edge_ops = ref [] in
  List.iter
    (fun (ea : D.edge) ->
      List.iter
        (fun (eb : D.edge) ->
          let sa = a.nodes.(ea.src) and sb = b.nodes.(eb.src) in
          let da = a.nodes.(ea.dst) and db = b.nodes.(eb.dst) in
          if nodes_mergeable sa sb && nodes_mergeable da db then
            if ea.port = eb.port || (all_commutative da && all_commutative db)
            then edge_ops := Edge_merge (ea, eb) :: !edge_ops)
        b.edges)
    a.edges;
  List.rev !node_ops @ List.rev !edge_ops

let opportunity_weight (a : D.t) (b : D.t) = function
  | Node_merge (na, nb) -> node_weight a.nodes.(na) b.nodes.(nb)
  | Edge_merge (ea, eb) ->
      (* sharing the wire avoids one extra mux input, and additionally
         implies the endpoint merges when they are not separately chosen;
         keep the weight local to the wire to avoid double counting *)
      ignore eb;
      edge_weight a ea

(* --- reconstruction --- *)

let build_mapping clique =
  let m = Hashtbl.create 16 in
  List.iter
    (fun o -> List.iter (fun (a, b) -> Hashtbl.replace m b a) (implied o))
    clique;
  m

let reconstruct (a : D.t) (b : D.t) (bcfg : D.config) clique =
  let m = build_mapping clique in
  let nodes = ref (Array.to_list a.nodes) in
  let next = ref (Array.length a.nodes) in
  (* extend ops of merged A nodes; a merged unit must be wide enough
     for both sides, so widths join by max *)
  let amended : (int, Op.t list * int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (nb : D.node) ->
      match Hashtbl.find_opt m nb.id with
      | Some aid ->
          let prev_ops, prev_w =
            match Hashtbl.find_opt amended aid with
            | Some x -> x
            | None -> (a.nodes.(aid).ops, a.nodes.(aid).width)
          in
          Hashtbl.replace amended aid
            (List.sort_uniq Op.compare (prev_ops @ nb.ops), max prev_w nb.width)
      | None ->
          let id = !next in
          incr next;
          Hashtbl.replace m nb.id id;
          nodes := !nodes @ [ { nb with id } ])
    b.nodes;
  let nodes =
    List.map
      (fun (n : D.node) ->
        match Hashtbl.find_opt amended n.id with
        | Some (ops, width) -> { n with ops; width }
        | None -> n)
      !nodes
    |> Array.of_list
  in
  (* per destination-node port remapping caused by commutative
     edge merges with differing ports *)
  let port_map : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Edge_merge (ea, eb) -> Hashtbl.replace port_map (eb.dst, eb.port) ea.port
      | Node_merge _ -> ())
    clique;
  (* siblings of swapped operands must move to the complementary port *)
  Array.iter
    (fun (nb : D.node) ->
      match nb.kind with
      | D.Fu _ ->
          let ports =
            List.filter (fun (e : D.edge) -> e.dst = nb.id) b.edges
            |> List.map (fun (e : D.edge) -> e.port)
            |> List.sort_uniq compare
          in
          if List.length ports = 2 then begin
            match
              ( Hashtbl.find_opt port_map (nb.id, 0),
                Hashtbl.find_opt port_map (nb.id, 1) )
            with
            | Some p0, None -> Hashtbl.replace port_map (nb.id, 1) (1 - p0)
            | None, Some p1 -> Hashtbl.replace port_map (nb.id, 0) (1 - p1)
            | _ -> ()
          end
      | _ -> ())
    b.nodes;
  let target_port (eb : D.edge) =
    Option.value ~default:eb.port (Hashtbl.find_opt port_map (eb.dst, eb.port))
  in
  let edges = ref (List.rev a.edges) in
  let add_edge e = if not (List.mem e !edges) then edges := e :: !edges in
  List.iter
    (fun (eb : D.edge) ->
      let e =
        { D.src = Hashtbl.find m eb.src;
          dst = Hashtbl.find m eb.dst;
          port = target_port eb }
      in
      add_edge e)
    b.edges;
  let edges = List.rev !edges in
  (* remap the new pattern's configuration *)
  let cfg =
    { bcfg with
      D.fu_ops = List.map (fun (fu, op) -> (Hashtbl.find m fu, op)) bcfg.D.fu_ops;
      routes =
        List.map
          (fun ((dst, port), src) ->
            let port' =
              Option.value ~default:port (Hashtbl.find_opt port_map (dst, port))
            in
            ((Hashtbl.find m dst, port'), Hashtbl.find m src))
          bcfg.D.routes;
      consts = List.map (fun (cr, v) -> (Hashtbl.find m cr, v)) bcfg.D.consts;
      inputs = List.map (fun (pi, n) -> (pi, Hashtbl.find m n)) bcfg.D.inputs;
      outputs = List.map (fun (pos, n) -> (pos, Hashtbl.find m n)) bcfg.D.outputs }
  in
  { D.nodes; edges; configs = a.configs @ [ cfg ] }

module Counter = Apex_telemetry.Counter
module Span = Apex_telemetry.Span

(* fan-in points that need a mux: (dst, port) pairs fed by >= 2 sources *)
let mux_points (dp : D.t) = List.length (D.mux_points dp)

let merge ?(strategy = Max_weight_clique) (a : D.t) p =
  Span.with_ "merging" @@ fun () ->
  Apex_guard.with_phase "merging" @@ fun () ->
  let b = D.of_pattern p in
  let bcfg = List.hd b.configs in
  let ops =
    match strategy with
    | No_sharing ->
        (* still share input ports, otherwise PE I/O explodes *)
        List.filter
          (function
            | Node_merge (na, nb) -> (
                match (a.nodes.(na).kind, b.nodes.(nb).kind) with
                | D.In_port, D.In_port | D.Bit_in_port, D.Bit_in_port -> true
                | _ -> false)
            | Edge_merge _ -> false)
          (enumerate_opportunities a b)
    | Max_weight_clique | Greedy_clique -> enumerate_opportunities a b
  in
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let weight = Array.map (opportunity_weight a b) ops in
  let adj =
    Array.init n (fun i ->
        Array.init n (fun j -> i <> j && compatible ops.(i) ops.(j)))
  in
  let problem = { Clique.n; weight; adj } in
  let solution =
    match strategy with
    | Greedy_clique ->
        let members = Clique.greedy problem in
        { Clique.members;
          weight = List.fold_left (fun acc v -> acc +. weight.(v)) 0.0 members;
          optimal = false;
          outcome = Apex_guard.Outcome.Exact }
    | Max_weight_clique | No_sharing -> Clique.solve problem
  in
  (* acyclicity repair: drop lightest members until the merged graph is
     a static DAG *)
  let rec attempt members dropped =
    let clique = List.map (fun i -> ops.(i)) members in
    let dp = reconstruct a b bcfg clique in
    match D.validate dp with
    | Ok () -> (dp, clique, dropped)
    | Error _ ->
        (match
           List.sort (fun i j -> compare weight.(i) weight.(j)) members
         with
        | [] ->
            (* disjoint union must be valid; re-raise the real error *)
            (match D.validate dp with
            | Error m -> invalid_arg ("Merge.merge: " ^ m)
            | Ok () -> assert false)
        | lightest :: _ ->
            attempt (List.filter (fun i -> i <> lightest) members) (dropped + 1))
  in
  let dp, clique, cycles_repaired = attempt solution.members 0 in
  Counter.incr "merging.merges";
  Counter.add "merging.opportunities" n;
  Counter.add "merging.cycles_repaired" cycles_repaired;
  Counter.add_lazy "merging.muxes_inserted" (fun () ->
      max 0 (mux_points dp - mux_points a));
  Counter.observe "merging.compat_graph_size" (float_of_int n);
  Counter.observe "merging.clique_weight"
    (List.fold_left (fun acc o -> acc +. opportunity_weight a b o) 0.0 clique);
  ( dp,
    { n_opportunities = n;
      clique;
      clique_weight =
        List.fold_left
          (fun acc o -> acc +. opportunity_weight a b o)
          0.0 clique;
      optimal = solution.optimal;
      cycles_repaired } )
