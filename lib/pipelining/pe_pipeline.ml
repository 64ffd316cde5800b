module Op = Apex_dfg.Op
module D = Apex_merging.Datapath
module Tech = Apex_models.Tech

type plan = {
  stages : int;
  period_ps : float;
  regs_inserted : int;
  reg_area : float;
  reg_energy : float;
}

let node_delay (dp : D.t) id =
  let n = dp.nodes.(id) in
  match n.kind with
  | D.Creg | D.In_port | D.Bit_in_port -> 0.0
  | D.Fu _ ->
      let fu =
        List.fold_left
          (fun acc op -> Float.max acc (Tech.op_cost op).delay)
          0.0 n.ops
      in
      (* worst input mux on any port *)
      let ports = Hashtbl.create 4 in
      List.iter
        (fun (e : D.edge) ->
          if e.dst = id then begin
            let prev = Option.value ~default:0 (Hashtbl.find_opt ports e.port) in
            Hashtbl.replace ports e.port (prev + 1)
          end)
        dp.edges;
      let mux =
        Hashtbl.fold
          (fun _ fanin acc ->
            if fanin >= 2 then Float.max acc (Tech.word_mux_cost fanin).delay
            else acc)
          ports 0.0
      in
      fu +. mux

(* ASAP levelling under period [t] and stage bound [stages]: returns
   (feasible, registers crossing stage boundaries, achieved period). *)
let level (dp : D.t) ~t ~stages =
  let n = Array.length dp.nodes in
  let stage = Array.make n 0 in
  let arrival = Array.make n 0.0 in
  let feasible = ref true in
  let worst = ref 0.0 in
  (* nodes are in topological order of the acyclic static graph? ids
     are not guaranteed topological after merging, so walk by readiness *)
  let preds = Array.make n [] in
  List.iter (fun (e : D.edge) -> preds.(e.dst) <- e.src :: preds.(e.dst)) dp.edges;
  let order =
    (* Kahn topological order *)
    let indeg = Array.make n 0 in
    let out = Array.make n [] in
    let edges = List.sort_uniq compare (List.map (fun (e : D.edge) -> (e.src, e.dst)) dp.edges) in
    List.iter
      (fun (s, d) ->
        indeg.(d) <- indeg.(d) + 1;
        out.(s) <- d :: out.(s))
      edges;
    let q = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
    let acc = ref [] in
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      acc := v :: !acc;
      List.iter
        (fun d ->
          indeg.(d) <- indeg.(d) - 1;
          if indeg.(d) = 0 then Queue.add d q)
        out.(v)
    done;
    List.rev !acc
  in
  List.iter
    (fun v ->
      let d = node_delay dp v in
      if d > t then feasible := false;
      (* earliest stage: at least the max pred stage; if arrival within
         that stage would exceed t, move one stage later *)
      let s0, a0 =
        List.fold_left
          (fun (s, a) p ->
            if stage.(p) > s then (stage.(p), arrival.(p))
            else if stage.(p) = s then (s, Float.max a arrival.(p))
            else (s, a))
          (0, 0.0) preds.(v)
      in
      let s, a = if a0 +. d > t then (s0 + 1, d) else (s0, a0 +. d) in
      stage.(v) <- s;
      arrival.(v) <- a;
      worst := Float.max !worst a;
      if s > stages - 1 then feasible := false)
    order;
  let regs =
    List.fold_left
      (fun acc (e : D.edge) -> acc + max 0 (stage.(e.dst) - stage.(e.src)))
      0
      (List.sort_uniq compare dp.edges)
  in
  (!feasible, regs, !worst)

let min_period (dp : D.t) ~stages =
  (* binary search the smallest feasible period; any period at or above
     the longest combinational path is feasible even with one stage *)
  let lo =
    Array.fold_left
      (fun acc (n : D.node) -> Float.max acc (node_delay dp n.id))
      1.0 dp.nodes
  in
  let hi = Float.max lo (Apex_peak.Cost.critical_path dp +. 1.0) in
  let lo = ref lo and hi = ref hi in
  (* Cost.critical_path counts FU delays only; [node_delay] also charges
     input muxes, so on heavily merged datapaths the seed upper bound
     can itself be infeasible — grow it until it is, or the search
     would "converge" onto an infeasible period *)
  while not (let f, _, _ = level dp ~t:!hi ~stages in f) do
    hi := !hi *. 2.0
  done;
  for _ = 1 to 40 do
    let mid = (!lo +. !hi) /. 2.0 in
    let feasible, _, _ = level dp ~t:mid ~stages in
    if feasible then hi := mid else lo := mid
  done;
  let _, regs, achieved = level dp ~t:!hi ~stages in
  (achieved, regs)

let max_stages = 16

module Store = Apex_exec.Store

let plan ?(target_ps = Tech.clock_period_ps) dp =
  Apex_telemetry.Span.with_ "pe_retime" @@ fun () ->
  let cache_key =
    (* not the configs: the plan reads only the fabric *)
    Store.key ~version:"pipeline/1"
      (dp.D.nodes, dp.D.edges, target_ps)
  in
  let stages, period_ps, regs_inserted =
    Store.memoize ~ns:"pipeline" ~key:cache_key @@ fun () ->
    (* meet the target if any stage count can; otherwise stop growing
       when an extra stage no longer buys a 10% period reduction *)
    let rec meet s =
      if s > max_stages then None
      else
        let period, regs = min_period dp ~stages:s in
        if period <= target_ps then Some (s, period, regs) else meet (s + 1)
    in
    let rec greedy stages (prev_period, prev_regs) =
      if stages >= max_stages then (stages, prev_period, prev_regs)
      else begin
        let period, regs = min_period dp ~stages:(stages + 1) in
        if prev_period -. period < 0.10 *. prev_period then
          (stages, prev_period, prev_regs)
        else greedy (stages + 1) (period, regs)
      end
    in
    match meet 1 with
    | Some plan -> plan
    | None ->
        let p1, r1 = min_period dp ~stages:1 in
        greedy 1 (p1, r1)
  in
  (* telemetry stays outside the memoized thunk so warm-cache runs
     report the same pipelining.* counters as cold ones *)
  Apex_telemetry.Counter.incr "pipelining.pe_plans";
  Apex_telemetry.Counter.observe "pipelining.pe_stages" (float_of_int stages);
  Apex_telemetry.Counter.observe "pipelining.period_ps" period_ps;
  { stages;
    period_ps;
    regs_inserted;
    reg_area = float_of_int regs_inserted *. Tech.pipeline_register_cost.area;
    reg_energy = float_of_int regs_inserted *. Tech.pipeline_register_cost.energy }

let assign_stages dp ~period_ps ~stages =
  let feasible, _, _ = level dp ~t:period_ps ~stages in
  if not feasible then None
  else begin
    (* re-run the levelling and capture the assignment *)
    let n = Array.length dp.D.nodes in
    let stage = Array.make n 0 in
    let arrival = Array.make n 0.0 in
    let preds = Array.make n [] in
    List.iter
      (fun (e : D.edge) -> preds.(e.dst) <- e.src :: preds.(e.dst))
      dp.D.edges;
    let order =
      let indeg = Array.make n 0 in
      let out = Array.make n [] in
      let edges =
        List.sort_uniq compare
          (List.map (fun (e : D.edge) -> (e.src, e.dst)) dp.D.edges)
      in
      List.iter
        (fun (s, d) ->
          indeg.(d) <- indeg.(d) + 1;
          out.(s) <- d :: out.(s))
        edges;
      let q = Queue.create () in
      Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
      let acc = ref [] in
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        acc := v :: !acc;
        List.iter
          (fun d ->
            indeg.(d) <- indeg.(d) - 1;
            if indeg.(d) = 0 then Queue.add d q)
          out.(v)
      done;
      List.rev !acc
    in
    List.iter
      (fun v ->
        let d = node_delay dp v in
        let s0, a0 =
          List.fold_left
            (fun (s, a) p ->
              if stage.(p) > s then (stage.(p), arrival.(p))
              else if stage.(p) = s then (s, Float.max a arrival.(p))
              else (s, a))
            (0, 0.0) preds.(v)
        in
        let s, a =
          if a0 +. d > period_ps then (s0 + 1, d) else (s0, a0 +. d)
        in
        stage.(v) <- s;
        arrival.(v) <- a)
      order;
    Some stage
  end

let rtl_stages dp =
  let p = plan dp in
  if p.stages > 1 then assign_stages dp ~period_ps:p.period_ps ~stages:p.stages
  else None
