module Guard = Apex_guard

type problem = { n : int; weight : float array; adj : bool array array }

type solution = {
  members : int list;
  weight : float;
  optimal : bool;
  outcome : Guard.Outcome.t;
}

let weight_of (p : problem) members =
  List.fold_left (fun acc v -> acc +. p.weight.(v)) 0.0 members

let greedy (p : problem) =
  let order =
    List.sort
      (fun a b -> compare p.weight.(b) p.weight.(a))
      (List.init p.n Fun.id)
  in
  let rec go clique = function
    | [] -> clique
    | v :: rest ->
        if List.for_all (fun u -> p.adj.(u).(v)) clique then go (v :: clique) rest
        else go clique rest
  in
  List.sort compare (go [] order)

exception Out_of_budget

let solve ?(budget = 2_000_000) (p : problem) =
  let order =
    Array.of_list
      (List.sort
         (fun a b -> compare p.weight.(b) p.weight.(a))
         (List.init p.n Fun.id))
  in
  let best = ref (greedy p) in
  let best_w = ref (weight_of p !best) in
  let steps = ref 0 in
  let cutoffs = ref 0 in
  let optimal = ref true in
  (* candidates: indices into [order] not yet decided, all compatible
     with the current clique *)
  let rec go clique w candidates cand_sum =
    Guard.tick ();
    incr steps;
    if !steps > budget then raise Out_of_budget;
    if w > !best_w then begin
      best := clique;
      best_w := w
    end;
    match candidates with
    | [] -> ()
    | v :: rest ->
        if w +. cand_sum > !best_w +. 1e-9 then begin
          (* include v *)
          let rest' = List.filter (fun u -> p.adj.(v).(u)) rest in
          let sum' = List.fold_left (fun a u -> a +. p.weight.(u)) 0.0 rest' in
          go (v :: clique) (w +. p.weight.(v)) rest' sum';
          (* exclude v *)
          go clique w rest (cand_sum -. p.weight.(v))
        end
        else incr cutoffs
  in
  (* the ladder: the search starts from the greedy warm start, so both
     the step cap and a budget trip return a feasible clique at least
     as heavy as greedy — only optimality degrades *)
  let outcome = ref Guard.Outcome.Exact in
  Apex_telemetry.Counter.time "merging.clique_ms" (fun () ->
      try
        let all = Array.to_list order in
        let sum = Array.fold_left ( +. ) 0.0 p.weight in
        go [] 0.0 all sum
      with
      | Out_of_budget ->
          optimal := false;
          outcome := Guard.Outcome.Degraded Guard.Outcome.Fuel
      | Guard.Cancelled _ ->
          optimal := false;
          outcome := Guard.Outcome.Degraded Guard.Outcome.Deadline);
  Apex_telemetry.Counter.add "merging.clique_nodes" !steps;
  Apex_telemetry.Counter.add "merging.clique_cutoffs" !cutoffs;
  if not !optimal then Apex_telemetry.Counter.incr "merging.clique_budget_exhausted";
  Guard.Outcome.record ~phase:"merging" !outcome;
  { members = List.sort compare !best;
    weight = !best_w;
    optimal = !optimal;
    outcome = !outcome }
