(* Validated optimization pipeline over the analysis fact base.

   Four transforms run as one iterated rewrite pass followed by a final
   dead-node sweep: constant folding (a compute node whose fact is a
   singleton becomes [Const]/[Bit_const]), algebraic identities (x&x,
   x|0, shl-by-0, mux with constant select, ...), structural CSE
   (commutative-normalized), and dead-node elimination.  I/O nodes are
   never touched, so the optimized graph keeps the application's
   input/output contract.

   Every fold/identity rewrite is discharged by a local SMT query at the
   full 16-bit width before it is applied: the node's arguments become
   bit-vectors constrained by their abstract facts (known bits as unit
   clauses, interval membership as an unsigned-range side condition) and
   the rewrite is accepted only if "old ≠ new" is UNSAT.  The final
   graph is additionally checked against the interpreter on random
   vectors; if either check fails the rewrite (resp. the whole run) is
   abandoned rather than trusted. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Interp = Apex_dfg.Interp
module Bv = Apex_smt.Bv
module Sat = Apex_smt.Sat
module Counter = Apex_telemetry.Counter

type repl = Fold of int | Arg of int  (** [Arg p]: alias to argument port [p] *)

type stats = {
  before_nodes : int;
  after_nodes : int;
  const_folds : int;
  identities : int;
  cse_merged : int;
  dce_removed : int;
  cones_proved : int;
  cones_rejected : int;
  iterations : int;
}

type result = {
  graph : G.t;
  stats : stats;
  validated : bool;
}

(* --- per-cone SMT validation --- *)

let width_of op = match Op.result_width op with Op.Word -> 16 | Op.Bit -> 1

let constrain c bv (f : Absint.fact) w =
  if w = 1 then begin
    (match Kbits.tri_of f.kb 0 with
    | Kbits.K0 -> Sat.add_clause (Bv.sat c) [ Sat.negate bv.(0) ]
    | Kbits.K1 -> Sat.add_clause (Bv.sat c) [ bv.(0) ]
    | Kbits.U -> ())
  end
  else begin
    for i = 0 to 15 do
      match Kbits.tri_of f.kb i with
      | Kbits.K0 -> Sat.add_clause (Bv.sat c) [ Sat.negate bv.(i) ]
      | Kbits.K1 -> Sat.add_clause (Bv.sat c) [ bv.(i) ]
      | Kbits.U -> ()
    done;
    if not (Itv.is_full f.itv) then begin
      (* v ∈ [lo..hi] (circular)  ⇔  (v - lo) ≤u (hi - lo) *)
      let lo = f.itv.Itv.lo in
      let diff = Bv.sub c bv (Bv.const c ~width:16 lo) in
      let span = Bv.const c ~width:16 (Itv.size f.itv - 1) in
      Sat.add_clause (Bv.sat c) [ Sat.negate (Bv.ult c span diff) ]
    end
  end

(* the width-inference queries in [Width] share this encoding, so
   "constrained by the forward facts" means the same thing everywhere *)
let constrain_fact = constrain

(* prove [node.op args = repl] under the argument facts *)
let validate_rewrite g (facts : Absint.fact array) (nd : G.node) repl =
  let c = Bv.create ~word_width:16 () in
  let cache = Hashtbl.create 4 in
  let enc a =
    match Hashtbl.find_opt cache a with
    | Some bv -> bv
    | None ->
        let f = facts.(a) in
        let w = width_of (G.node g a).G.op in
        let bv =
          match f.Absint.cst with
          | Some v -> Bv.const c ~width:w v
          | None ->
              let bv = Bv.fresh c w in
              constrain c bv f w;
              bv
        in
        Hashtbl.replace cache a bv;
        bv
  in
  let args_bv = Array.map enc nd.G.args in
  let old_bv = Bv.eval_op c nd.G.op args_bv in
  let new_bv =
    match repl with
    | Fold v -> Bv.const c ~width:(Array.length old_bv) v
    | Arg p -> args_bv.(p)
  in
  Bv.assert_not_equal c [ old_bv ] [ new_bv ];
  match Sat.solve ~conflict_budget:50_000 (Bv.sat c) with
  | Sat.Unsat -> true
  | Sat.Sat | Sat.Unknown -> false

(* --- rewrite selection --- *)

let choose_rewrite (facts : Absint.fact array) (nd : G.node) =
  let a = nd.G.args in
  let cst p = facts.(a.(p)).Absint.cst in
  let same p q = a.(p) = a.(q) in
  let ubounds p = Itv.unsigned_bounds facts.(a.(p)).Absint.itv in
  let sbounds p = Itv.signed_bounds facts.(a.(p)).Absint.itv in
  if not (Op.is_compute nd.G.op) then None
  else
    match facts.(nd.G.id).Absint.cst with
    (* the whole node is provably constant *)
    | Some v -> Some (`Fold, Fold v)
    | None -> (
  match nd.G.op with
  | Op.Add ->
      if cst 0 = Some 0 then Some (`Identity, Arg 1)
      else if cst 1 = Some 0 then Some (`Identity, Arg 0)
      else None
  | Op.Sub ->
      if same 0 1 then Some (`Identity, Fold 0)
      else if cst 1 = Some 0 then Some (`Identity, Arg 0)
      else None
  | Op.Mul ->
      if cst 0 = Some 1 then Some (`Identity, Arg 1)
      else if cst 1 = Some 1 then Some (`Identity, Arg 0)
      else if cst 0 = Some 0 || cst 1 = Some 0 then Some (`Identity, Fold 0)
      else None
  | Op.Shl | Op.Lshr ->
      if cst 1 = Some 0 then Some (`Identity, Arg 0)
      else if fst (ubounds 1) >= 16 then Some (`Identity, Fold 0)
      else if cst 0 = Some 0 then Some (`Identity, Fold 0)
      else None
  | Op.Ashr ->
      if cst 1 = Some 0 then Some (`Identity, Arg 0)
      else if fst (ubounds 1) >= 16 then (
        (* saturated arithmetic shift is the sign fill *)
        match Kbits.tri_of facts.(a.(0)).Absint.kb 15 with
        | Kbits.K0 -> Some (`Identity, Fold 0)
        | Kbits.K1 -> Some (`Identity, Fold 0xffff)
        | Kbits.U -> None)
      else None
  | Op.And ->
      if same 0 1 then Some (`Identity, Arg 0)
      else if cst 0 = Some 0 || cst 1 = Some 0 then Some (`Identity, Fold 0)
      else if cst 0 = Some 0xffff then Some (`Identity, Arg 1)
      else if cst 1 = Some 0xffff then Some (`Identity, Arg 0)
      else None
  | Op.Or ->
      if same 0 1 then Some (`Identity, Arg 0)
      else if cst 0 = Some 0 then Some (`Identity, Arg 1)
      else if cst 1 = Some 0 then Some (`Identity, Arg 0)
      else if cst 0 = Some 0xffff || cst 1 = Some 0xffff then
        Some (`Identity, Fold 0xffff)
      else None
  | Op.Xor ->
      if same 0 1 then Some (`Identity, Fold 0)
      else if cst 0 = Some 0 then Some (`Identity, Arg 1)
      else if cst 1 = Some 0 then Some (`Identity, Arg 0)
      else None
  | Op.Abs -> if fst (sbounds 0) >= 0 then Some (`Identity, Arg 0) else None
  | Op.Smax ->
      if same 0 1 then Some (`Identity, Arg 0)
      else if snd (sbounds 0) <= fst (sbounds 1) then Some (`Identity, Arg 1)
      else if snd (sbounds 1) <= fst (sbounds 0) then Some (`Identity, Arg 0)
      else None
  | Op.Smin ->
      if same 0 1 then Some (`Identity, Arg 0)
      else if snd (sbounds 0) <= fst (sbounds 1) then Some (`Identity, Arg 0)
      else if snd (sbounds 1) <= fst (sbounds 0) then Some (`Identity, Arg 1)
      else None
  | Op.Umax ->
      if same 0 1 then Some (`Identity, Arg 0)
      else if snd (ubounds 0) <= fst (ubounds 1) then Some (`Identity, Arg 1)
      else if snd (ubounds 1) <= fst (ubounds 0) then Some (`Identity, Arg 0)
      else None
  | Op.Umin ->
      if same 0 1 then Some (`Identity, Arg 0)
      else if snd (ubounds 0) <= fst (ubounds 1) then Some (`Identity, Arg 0)
      else if snd (ubounds 1) <= fst (ubounds 0) then Some (`Identity, Arg 1)
      else None
  | Op.Eq -> if same 0 1 then Some (`Identity, Fold 1) else None
  | Op.Neq -> if same 0 1 then Some (`Identity, Fold 0) else None
  | Op.Slt | Op.Ult -> if same 0 1 then Some (`Identity, Fold 0) else None
  | Op.Sle | Op.Ule -> if same 0 1 then Some (`Identity, Fold 1) else None
  | Op.Mux ->
      if same 1 2 then Some (`Identity, Arg 1)
      else (
        match cst 0 with
        | Some 1 -> Some (`Identity, Arg 1)
        | Some 0 -> Some (`Identity, Arg 2)
        | _ -> None)
  | _ -> None)

(* --- one rewrite + CSE pass; returns (new graph, changed?) --- *)

type pass_counters = {
  mutable folds : int;
  mutable idents : int;
  mutable cse : int;
  mutable proved : int;
  mutable rejected : int;
}

let cse_key (op : Op.t) (args : int array) =
  let args =
    if Op.is_commutative op then (
      let a = Array.copy args in
      Array.sort compare a;
      a)
    else args
  in
  (op, args)

let rewrite_pass (g : G.t) (facts : Absint.fact array) (pc : pass_counters) =
  let n = G.length g in
  let b = G.Builder.create () in
  let remap = Array.make n (-1) in
  let cse = Hashtbl.create 64 in
  let changed = ref false in
  Array.iter
    (fun (nd : G.node) ->
      Apex_guard.tick ();
      let args' = Array.map (fun a -> remap.(a)) nd.G.args in
      let emit () =
        (* structural CSE over pure nodes, commutative args normalized *)
        if Op.is_compute nd.G.op || Op.is_const nd.G.op then (
          let key = cse_key nd.G.op args' in
          match Hashtbl.find_opt cse key with
          | Some id' ->
              pc.cse <- pc.cse + 1;
              changed := true;
              remap.(nd.G.id) <- id'
          | None ->
              let id' = G.Builder.add b nd.G.op args' in
              Hashtbl.replace cse key id';
              remap.(nd.G.id) <- id')
        else remap.(nd.G.id) <- G.Builder.add b nd.G.op args'
      in
      match choose_rewrite facts nd with
      | None -> emit ()
      | Some (cls, repl) ->
          if not (validate_rewrite g facts nd repl) then begin
            pc.rejected <- pc.rejected + 1;
            emit ()
          end
          else begin
            pc.proved <- pc.proved + 1;
            changed := true;
            (match cls with
            | `Fold -> pc.folds <- pc.folds + 1
            | `Identity -> pc.idents <- pc.idents + 1);
            match repl with
            | Arg p -> remap.(nd.G.id) <- remap.(nd.G.args.(p))
            | Fold v ->
                let op =
                  match Op.result_width nd.G.op with
                  | Op.Word -> Op.Const (v land 0xffff)
                  | Op.Bit -> Op.Bit_const (v land 1 = 1)
                in
                let key = cse_key op [||] in
                (match Hashtbl.find_opt cse key with
                | Some id' -> remap.(nd.G.id) <- id'
                | None ->
                    let id' = G.Builder.add b op [||] in
                    Hashtbl.replace cse key id';
                    remap.(nd.G.id) <- id')
          end)
    (G.nodes g);
  (G.Builder.finish b, !changed)

(* dead-node elimination: drop nodes unreachable from any output, but
   keep every I/O node so the application contract is untouched *)
let dce (g : G.t) =
  let n = G.length g in
  let live = Array.make n false in
  Array.iter
    (fun (nd : G.node) ->
      match nd.G.op with
      | Op.Output _ | Op.Bit_output _ | Op.Input _ | Op.Bit_input _ ->
          live.(nd.G.id) <- true
      | _ -> ())
    (G.nodes g);
  for i = n - 1 downto 0 do
    if live.(i) then
      Array.iter (fun a -> live.(a) <- true) (G.node g i).G.args
  done;
  let removed = ref 0 in
  let b = G.Builder.create () in
  let remap = Array.make n (-1) in
  Array.iter
    (fun (nd : G.node) ->
      if live.(nd.G.id) then
        remap.(nd.G.id) <-
          G.Builder.add b nd.G.op (Array.map (fun a -> remap.(a)) nd.G.args)
      else incr removed)
    (G.nodes g);
  (G.Builder.finish b, !removed)

(* differential validation: both graphs agree on random input vectors *)
let equiv_check ?(vectors = 64) (g : G.t) (g' : G.t) =
  let st = Random.State.make [| 0x5eed; 0xa9e; vectors |] in
  let sorted l = List.sort compare l in
  try
    let ok = ref true in
    for _ = 1 to vectors do
      let env = Interp.random_env st g in
      if sorted (Interp.run g env) <> sorted (Interp.run g' env) then ok := false
    done;
    !ok
  with _ -> false

let run ?(vectors = 64) (g : G.t) =
  Apex_guard.with_phase "analysis" @@ fun () ->
  let pc = { folds = 0; idents = 0; cse = 0; proved = 0; rejected = 0 } in
  let cur = ref g in
  let iterations = ref 0 in
  let continue_ = ref true in
  let outcome = ref Apex_guard.Outcome.Exact in
  (* anytime fixpoint: a budget trip mid-pass abandons that pass's
     half-built graph and keeps the last completed one — every rewrite
     in it was individually discharged, so the tail below (DCE plus the
     differential check) still runs on a sound graph *)
  (try
     while !continue_ && !iterations < 8 do
       incr iterations;
       let facts = Absint.analyze !cur in
       let g', changed = rewrite_pass !cur facts pc in
       cur := g';
       continue_ := changed
     done
   with Apex_guard.Cancelled _ ->
     outcome := Apex_guard.Outcome.Degraded Apex_guard.Outcome.Deadline);
  let g', dce_removed = dce !cur in
  let validated = equiv_check ~vectors g g' in
  let graph = if validated then g' else g in
  if not validated then Counter.incr "analysis.validation_failures";
  let before_nodes = G.length g and after_nodes = G.length graph in
  Counter.add "analysis.const_folds" pc.folds;
  Counter.add "analysis.identities" pc.idents;
  Counter.add "analysis.cse_merged" pc.cse;
  Counter.add "analysis.dce_removed" dce_removed;
  Counter.add "analysis.cones_proved" pc.proved;
  Counter.add "analysis.cones_rejected" pc.rejected;
  Counter.add "analysis.nodes_eliminated" (max 0 (before_nodes - after_nodes));
  Apex_guard.Outcome.record ~phase:"analysis" !outcome;
  {
    graph;
    validated;
    stats =
      {
        before_nodes;
        after_nodes;
        const_folds = pc.folds;
        identities = pc.idents;
        cse_merged = pc.cse;
        dce_removed = (if validated then dce_removed else 0);
        cones_proved = pc.proved;
        cones_rejected = pc.rejected;
        iterations = !iterations;
      };
  }
