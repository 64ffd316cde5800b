(* Proven per-node result widths: the forward facts ([Absint], "which
   bits can this be") meet the backward demands ([Demand], "which bits
   does anyone look at").  A node's *live mask* is demanded ∧ ¬known-
   zero and its width is the position of the highest live bit plus one;
   a graph where every node is masked to its live bits computes the
   same outputs as the original.

   That claim is not taken from the abstract domains on faith.  Every
   node whose masking is non-trivial is discharged by a fresh per-cone
   SMT query in the style of [Opt]: arguments are bit-vectors
   constrained by their forward facts, and

     (op args) ∧ live(nd)  ≠  (op (args ∧ live(arg))) ∧ live(nd)

   must be UNSAT.  Proofs compose inductively over the DAG because each
   query assumes only its arguments' *final* masks: a failed query
   widens a mask back toward natural and the pass re-runs until no mask
   moves, so the converged pass is self-consistent.  The degradation
   ladder below that is: SMT unavailable (the [width-smt-exhaust]
   fault) keeps narrowings on whole-graph differential-interpreter
   evidence only (counted [tested_only], widths identical to the proved
   run); a failed differential check reverts every narrowing to the
   16-bit naturals.  No unvalidated width ever escapes. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Interp = Apex_dfg.Interp
module Bv = Apex_smt.Bv
module Sat = Apex_smt.Sat
module Counter = Apex_telemetry.Counter
module Outcome = Apex_guard.Outcome

type t = {
  demanded : int array;  (** raw backward demand mask per node *)
  live : int array;      (** validated live mask per node *)
  widths : int array;    (** validated width per node: msb(live)+1, min 1 *)
  naturals : int array;  (** the node's full hardware width (16 or 1) *)
  proved : int;          (** narrowing queries discharged UNSAT *)
  tested_only : int;     (** narrowings kept on differential evidence only *)
  rejected : int;        (** narrowing reverts (failed or cancelled queries) *)
  validated : bool;      (** every kept narrowing proved or tested *)
  outcome : Outcome.t;
}

let natural_bits op = match Op.result_width op with Op.Word -> 16 | Op.Bit -> 1

let natural_mask op = match Op.result_width op with Op.Word -> 0xffff | Op.Bit -> 1

let width_of_mask m = max 1 (Demand.msb_index m + 1)

let narrowed_nodes t =
  let n = ref 0 in
  Array.iteri (fun i w -> if w < t.naturals.(i) then incr n) t.widths;
  !n

let bits_saved t =
  let n = ref 0 in
  Array.iteri (fun i w -> n := !n + (t.naturals.(i) - w)) t.widths;
  !n

(* --- the per-cone query --- *)

(* mask a vector down to [m]: dropped positions become constant false *)
let masked c bv m =
  Array.mapi (fun i l -> if m land (1 lsl i) <> 0 then l else Bv.false_lit c) bv

(* Prove that masking node [nd]'s arguments to [arg_mask] and its own
   result to [out_mask] cannot change the result's live bits, for any
   argument values satisfying the forward facts. *)
let validate_cone g (facts : Absint.fact array) (nd : G.node) ~arg_mask ~out_mask
    =
  let c = Bv.create ~word_width:16 () in
  let cache = Hashtbl.create 4 in
  let enc a =
    match Hashtbl.find_opt cache a with
    | Some bv -> bv
    | None ->
        let f = facts.(a) in
        let w = natural_bits (G.node g a).G.op in
        let bv =
          match f.Absint.cst with
          | Some v -> Bv.const c ~width:w v
          | None ->
              let bv = Bv.fresh c w in
              (* the same fact encoding Opt's rewrite queries use *)
              Opt.constrain_fact c bv f w;
              bv
        in
        Hashtbl.replace cache a bv;
        bv
  in
  let args_bv = Array.map enc nd.G.args in
  (match nd.G.op with
  | Op.Output _ | Op.Bit_output _ ->
      (* no combinational semantics to re-evaluate: prove the argument's
         mask is an identity on values satisfying its facts *)
      let a = args_bv.(0) in
      Bv.assert_not_equal c [ a ] [ masked c a (arg_mask 0) ]
  | op ->
      let old_bv = Bv.eval_op c op args_bv in
      let masked_args =
        Array.mapi (fun j bv -> masked c bv (arg_mask j)) args_bv
      in
      let new_bv = Bv.eval_op c op masked_args in
      Bv.assert_not_equal c
        [ masked c old_bv out_mask ]
        [ masked c new_bv out_mask ]);
  match Sat.solve ~conflict_budget:50_000 (Bv.sat c) with
  | Sat.Unsat -> true
  | Sat.Sat | Sat.Unknown -> false

(* --- the differential fallback --- *)

(* evaluate the graph with every node's result masked to [live] *)
let masked_eval g live env =
  let nodes = G.nodes g in
  let vals = Array.make (Array.length nodes) 0 in
  let outs = ref [] in
  Array.iter
    (fun (nd : G.node) ->
      let a i = vals.(nd.G.args.(i)) in
      let v =
        match nd.G.op with
        | Op.Input name | Op.Bit_input name -> List.assoc name env
        | Op.Output name ->
            outs := (name, a 0) :: !outs;
            a 0
        | Op.Bit_output name ->
            outs := (name, a 0 land 1) :: !outs;
            a 0 land 1
        | op -> Apex_dfg.Sem.eval op (Array.init (Array.length nd.G.args) a)
      in
      vals.(nd.G.id) <- v land live.(nd.G.id))
    nodes;
  List.rev !outs

let differential_check ?(vectors = 64) g live =
  if G.io_outputs g = [] then true
  else begin
    let st = Random.State.make [| 0x5eed; 0x11d7; vectors |] in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < vectors do
      incr i;
      let env = Interp.random_env st g in
      let reference = List.sort compare (Interp.run g env) in
      let narrowed = List.sort compare (masked_eval g live env) in
      if reference <> narrowed then ok := false
    done;
    !ok
  end

(* --- the inference driver --- *)

let infer ?(vectors = 64) (g : G.t) =
  Apex_guard.with_phase "analysis" @@ fun () ->
  Counter.incr "analysis.width.checks_run";
  let n = G.length g in
  let nodes = G.nodes g in
  let facts = Absint.analyze g in
  let demanded = Demand.analyze g in
  let naturals = Array.map (fun (nd : G.node) -> natural_bits nd.G.op) nodes in
  let nat_mask = Array.map (fun (nd : G.node) -> natural_mask nd.G.op) nodes in
  (* proposal: demanded ∧ ¬known-zero.  Output markers keep their
     natural mask — the external contract is full width — so the only
     masking at the boundary is on their arguments. *)
  let live =
    Array.init n (fun i ->
        match nodes.(i).G.op with
        | Op.Output _ | Op.Bit_output _ -> nat_mask.(i)
        | _ ->
            demanded.(i)
            land lnot facts.(i).Absint.kb.Kbits.zeros
            land nat_mask.(i))
  in
  let revert_all () =
    for i = 0 to n - 1 do
      live.(i) <- nat_mask.(i)
    done
  in
  let nontrivial (nd : G.node) =
    Array.length nd.G.args > 0
    && (live.(nd.G.id) <> nat_mask.(nd.G.id)
       || Array.exists (fun a -> live.(a) <> nat_mask.(a)) nd.G.args)
  in
  (* one fault firing disables SMT for this whole inference: every
     narrowing degrades from proved to tested-only *)
  let smt_down = Apex_guard.Fault.fire "width-smt-exhaust" in
  let proved = ref 0 in
  let tested_only = ref 0 in
  let rejected = ref 0 in
  let outcome =
    ref
      (if smt_down then Outcome.Degraded (Outcome.Fault "width-smt-exhaust")
       else Outcome.Exact)
  in
  if smt_down then
    Array.iter (fun nd -> if nontrivial nd then incr tested_only) nodes
  else begin
    (* Iterate the validation sweep to a fixpoint: a failed query widens
       a mask (the node's own first, its arguments' on a retry with the
       natural output mask), which can invalidate proofs that assumed
       the narrower mask, so the sweep re-runs until no mask moves.
       Masks only ever widen, so this terminates; [proved] counts the
       self-consistent final sweep. *)
    try
      let pass = ref 0 in
      let changed = ref true in
      while !changed do
        incr pass;
        changed := false;
        proved := 0;
        Array.iter
          (fun (nd : G.node) ->
            Apex_guard.tick ();
            if nontrivial nd then begin
              let i = nd.G.id in
              let arg_mask j = live.(nd.G.args.(j)) in
              if validate_cone g facts nd ~arg_mask ~out_mask:live.(i) then
                incr proved
              else begin
                incr rejected;
                changed := true;
                if live.(i) <> nat_mask.(i) then live.(i) <- nat_mask.(i)
                else
                  Array.iter (fun a -> live.(a) <- nat_mask.(a)) nd.G.args
              end
            end)
          nodes;
        if !pass > 16 && !changed then begin
          (* should be unreachable (masks strictly widen); bail safely *)
          revert_all ();
          changed := false;
          proved := 0
        end
      done
    with Apex_guard.Cancelled _ ->
      (* budget expired mid-proof: nothing partial is trustworthy *)
      revert_all ();
      proved := 0;
      outcome := Outcome.Degraded Outcome.Deadline
  end;
  (* ladder rung 2: anything kept without a proof must survive the
     whole-graph differential check, or everything reverts to natural *)
  let any_narrowing () =
    let any = ref false in
    for i = 0 to n - 1 do
      if live.(i) <> nat_mask.(i) then any := true
    done;
    !any
  in
  let validated =
    if not (any_narrowing ()) then true
    else if differential_check ~vectors g live then true
    else begin
      Counter.incr "analysis.width.validation_failures";
      revert_all ();
      proved := 0;
      tested_only := 0;
      incr rejected;
      false
    end
  in
  let widths = Array.init n (fun i -> width_of_mask live.(i)) in
  Outcome.record ~phase:"analysis" !outcome;
  Counter.add "analysis.width.cones_proved" !proved;
  Counter.add "analysis.width.cones_rejected" !rejected;
  Counter.add "analysis.width.tested_only" !tested_only;
  let t =
    { demanded; live; widths; naturals; proved = !proved;
      tested_only = !tested_only; rejected = !rejected; validated;
      outcome = !outcome }
  in
  Counter.add "analysis.width.narrowed_nodes" (narrowed_nodes t);
  Counter.add "analysis.width.bits_saved" (bits_saved t);
  t
