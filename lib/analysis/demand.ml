(* Backward demanded-bits + liveness over [Dfg.Graph] — the dual of the
   forward known-bits domain: instead of "which bits can this node
   produce", "which of this node's bits does any consumer ever look
   at".

   The fact is a 16-bit mask (bit-valued nodes use bit 0 only); join is
   bitwise or, bottom is 0 — a node whose demand stays 0 is dead.  A
   node's demand is the join over its users of what each user needs on
   the connecting port given the user's own demand, so the analysis is
   a backward [Dataflow] instance seeded with full demand at the
   [Output]/[Bit_output] markers.

   [Reg]/[Reg_file] are the cycle-crossing back-edges of the modelled
   hardware; their register state is architecturally observable across
   configurations, so they widen: a register demands every bit of its
   input no matter how little of its own output is consumed. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph

let word_mask = 0xffff

let msb_index m =
  let rec go i = if i < 0 then -1 else if m land (1 lsl i) <> 0 then i else go (i - 1) in
  go 15

let lsb_index m =
  let rec go i = if i > 15 then 16 else if m land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

(* all bits at or below the highest demanded one: the cone a ripple
   carry can reach *)
let upto m = if m = 0 then 0 else (1 lsl (msb_index m + 1)) - 1

(* all bits at or above the lowest demanded one: the cone a right shift
   can reach *)
let from m = if m = 0 then 0 else word_mask land lnot ((1 lsl lsb_index m) - 1)

let all_if d = if d = 0 then 0 else word_mask

let bit_if d = if d = 0 then 0 else 1

(* a constant sibling sharpens And/Or: bits the mask forces are not
   demanded from the variable side *)
let const_of (g : G.t) id =
  match (G.nodes g).(id).G.op with Op.Const v -> Some (v land word_mask) | _ -> None

(* [demand_on_arg g u p d]: which bits user [u] (whose own result is
   demanded to [d]) needs of its [p]-th argument *)
let demand_on_arg (g : G.t) (u : G.node) p d =
  let other_const () =
    if Op.arity u.G.op = 2 then const_of g u.G.args.(1 - p) else None
  in
  match u.G.op with
  | Op.Add | Op.Sub | Op.Mul ->
      (* column p of the result only sees argument columns <= p *)
      upto d
  | Op.Shl -> (
      match p with
      | 0 -> (
          match const_of g u.G.args.(1) with
          | Some k when k >= 16 -> 0
          | Some k -> d lsr k
          | None -> upto d (* any k >= 0 still only moves bits upward *))
      | _ -> all_if d)
  | Op.Lshr -> (
      match p with
      | 0 -> (
          match const_of g u.G.args.(1) with
          | Some k when k >= 16 -> 0
          | Some k -> (d lsl k) land word_mask
          | None -> from d (* bits only move downward *))
      | _ -> all_if d)
  | Op.Ashr -> (
      match p with
      | 0 -> (
          match const_of g u.G.args.(1) with
          | Some k when k >= 16 -> if d = 0 then 0 else 0x8000
          | Some k ->
              let r = d lsl k in
              (r land word_mask)
              lor (if r land lnot word_mask <> 0 then 0x8000 else 0)
          | None -> from d)
      | _ -> all_if d)
  | Op.And -> (
      match other_const () with Some v -> d land v | None -> d)
  | Op.Or -> (
      match other_const () with
      | Some v -> d land word_mask land lnot v
      | None -> d)
  | Op.Xor | Op.Not -> d
  | Op.Abs ->
      (* negation is a ripple (lnot + 1) gated by the sign bit *)
      if d = 0 then 0 else upto d lor 0x8000
  | Op.Smax | Op.Smin | Op.Umax | Op.Umin ->
      (* the comparison that picks a side reads every bit *)
      all_if d
  | Op.Eq | Op.Neq | Op.Slt | Op.Sle | Op.Ult | Op.Ule -> all_if d
  | Op.Mux -> if p = 0 then bit_if d else d
  | Op.Lut _ -> bit_if d
  | Op.Reg | Op.Reg_file _ ->
      (* widen across the cycle boundary: register state is observable *)
      word_mask
  | Op.Output _ -> d
  | Op.Bit_output _ -> d land 1
  | Op.Const _ | Op.Bit_const _ | Op.Input _ | Op.Bit_input _ ->
      invalid_arg "Demand.demand_on_arg: nullary op has no arguments"

let width_mask (nd : G.node) =
  match Op.result_width nd.G.op with Op.Word -> word_mask | Op.Bit -> 1

module Problem = struct
  type fact = int

  let direction = Dataflow.Backward

  (* bottom (nothing demanded) everywhere except the externally
     observable output markers *)
  let init _g (nd : G.node) =
    match nd.G.op with
    | Op.Output _ -> word_mask
    | Op.Bit_output _ -> 1
    | _ -> 0

  let transfer g ~succs (nd : G.node) get =
    let base =
      match nd.G.op with Op.Output _ -> word_mask | Op.Bit_output _ -> 1 | _ -> 0
    in
    let nodes = G.nodes g in
    let d =
      List.fold_left
        (fun acc uid ->
          let u = nodes.(uid) in
          let du = get uid in
          let acc = ref acc in
          Array.iteri
            (fun p a -> if a = nd.G.id then acc := !acc lor demand_on_arg g u p du)
            u.G.args;
          !acc)
        base succs.(nd.G.id)
    in
    d land width_mask nd
end

module Engine = Dataflow.Make (Problem)

let analyze (g : G.t) = Engine.solve g

let is_live demands id = demands.(id) <> 0
