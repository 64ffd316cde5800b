(* Forward abstract interpretation over [Dfg.Graph].

   Three cooperating domains run as a reduced product per node:
   wrap-around intervals ([Itv]), known bits ([Kbits]) and constancy.
   Node ids are topologically ordered, so a forward sweep visits every
   argument before its user; [Reg]/[Reg_file] nodes hold values across
   a cycle boundary and their transfer is ⊤, so the one sweep is the
   fixpoint. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Sem = Apex_dfg.Sem

type fact = { itv : Itv.t; kb : Kbits.t; cst : int option }

let top_word = { itv = Itv.full; kb = Kbits.top; cst = None }
let top_bit = { itv = Itv.bit_top; kb = Kbits.bit_top; cst = None }

let fact_equal a b =
  Itv.equal a.itv b.itv && Kbits.equal a.kb b.kb && a.cst = b.cst

let of_const v =
  let v = v land 0xffff in
  { itv = Itv.const v; kb = Kbits.const v; cst = Some v }

let of_bit b = of_const (if b then 1 else 0)

(* reduction: exchange information between the domains until each is at
   least as precise as what the others imply *)
let reduce f =
  match f.cst with
  | Some v -> of_const v
  | None -> (
      (* kb implies the unwrapped range [ones, ~zeros] *)
      let kb_itv = Itv.make (Kbits.unsigned_min f.kb) (Kbits.unsigned_max f.kb) in
      let itv =
        if Itv.size kb_itv < Itv.size f.itv then kb_itv else f.itv
      in
      (* a seam-free interval fixes the common high bits *)
      let kb =
        if Itv.is_full itv then f.kb
        else
          let lo, hi = Itv.unsigned_bounds itv in
          match Kbits.meet f.kb (Kbits.of_unsigned_range lo hi) with
          | Some k -> k
          | None -> f.kb
      in
      match (Itv.is_const itv, Kbits.is_const kb) with
      | Some v, _ | _, Some v -> of_const v
      | None, None -> { itv; kb; cst = None })

let join a b =
  match (a.cst, b.cst) with
  | Some x, Some y when x = y -> a
  | _ ->
      reduce { itv = Itv.join a.itv b.itv; kb = Kbits.join a.kb b.kb; cst = None }

let decided_bit = function Some true -> of_bit true | Some false -> of_bit false | None -> top_bit

let transfer (op : Op.t) (f : int -> fact) =
  let all_const n =
    let rec go i acc =
      if i < 0 then Some (Array.of_list acc)
      else match (f i).cst with Some v -> go (i - 1) (v :: acc) | None -> None
    in
    go (n - 1) []
  in
  let fold_or n k =
    match all_const n with
    | Some vals -> of_const (Sem.eval op vals)
    | None -> reduce (k ())
  in
  match op with
  | Op.Const v -> of_const v
  | Op.Bit_const b -> of_bit b
  | Op.Input _ -> top_word
  | Op.Bit_input _ -> top_bit
  | Op.Output _ -> f 0
  | Op.Bit_output _ -> f 0
  (* registers carry values across cycle boundaries: widen to ⊤ *)
  | Op.Reg | Op.Reg_file _ -> top_word
  | Op.Add ->
      fold_or 2 (fun () ->
          { itv = Itv.add (f 0).itv (f 1).itv;
            kb = Kbits.add (f 0).kb (f 1).kb; cst = None })
  | Op.Sub ->
      fold_or 2 (fun () ->
          { itv = Itv.sub (f 0).itv (f 1).itv;
            kb = Kbits.sub (f 0).kb (f 1).kb; cst = None })
  | Op.Mul ->
      fold_or 2 (fun () ->
          { itv = Itv.mul (f 0).itv (f 1).itv;
            kb = Kbits.mul (f 0).kb (f 1).kb; cst = None })
  | Op.Shl ->
      fold_or 2 (fun () ->
          { itv = Itv.shl (f 0).itv (f 1).itv;
            kb = Kbits.shl (f 0).kb (f 1).kb; cst = None })
  | Op.Lshr ->
      fold_or 2 (fun () ->
          { itv = Itv.lshr (f 0).itv (f 1).itv;
            kb = Kbits.lshr (f 0).kb (f 1).kb; cst = None })
  | Op.Ashr ->
      fold_or 2 (fun () ->
          { itv = Itv.ashr (f 0).itv (f 1).itv;
            kb = Kbits.ashr (f 0).kb (f 1).kb; cst = None })
  | Op.And ->
      fold_or 2 (fun () ->
          { itv = Itv.logand (f 0).itv (f 1).itv;
            kb = Kbits.logand (f 0).kb (f 1).kb; cst = None })
  | Op.Or ->
      fold_or 2 (fun () ->
          { itv = Itv.logor (f 0).itv (f 1).itv;
            kb = Kbits.logor (f 0).kb (f 1).kb; cst = None })
  | Op.Xor ->
      fold_or 2 (fun () ->
          { itv = Itv.logxor (f 0).itv (f 1).itv;
            kb = Kbits.logxor (f 0).kb (f 1).kb; cst = None })
  | Op.Not ->
      fold_or 1 (fun () ->
          { itv = Itv.lognot (f 0).itv; kb = Kbits.lognot (f 0).kb; cst = None })
  | Op.Abs ->
      fold_or 1 (fun () -> { itv = Itv.abs (f 0).itv; kb = Kbits.top; cst = None })
  | Op.Smax ->
      fold_or 2 (fun () ->
          { itv = Itv.smax (f 0).itv (f 1).itv;
            kb = Kbits.join (f 0).kb (f 1).kb; cst = None })
  | Op.Smin ->
      fold_or 2 (fun () ->
          { itv = Itv.smin (f 0).itv (f 1).itv;
            kb = Kbits.join (f 0).kb (f 1).kb; cst = None })
  | Op.Umax ->
      fold_or 2 (fun () ->
          { itv = Itv.umax (f 0).itv (f 1).itv;
            kb = Kbits.join (f 0).kb (f 1).kb; cst = None })
  | Op.Umin ->
      fold_or 2 (fun () ->
          { itv = Itv.umin (f 0).itv (f 1).itv;
            kb = Kbits.join (f 0).kb (f 1).kb; cst = None })
  | Op.Eq -> decided_bit (Itv.eq_decided (f 0).itv (f 1).itv)
  | Op.Neq -> decided_bit (Option.map not (Itv.eq_decided (f 0).itv (f 1).itv))
  | Op.Slt -> decided_bit (Itv.slt_decided (f 0).itv (f 1).itv)
  | Op.Sle -> decided_bit (Itv.sle_decided (f 0).itv (f 1).itv)
  | Op.Ult -> decided_bit (Itv.ult_decided (f 0).itv (f 1).itv)
  | Op.Ule -> decided_bit (Itv.ule_decided (f 0).itv (f 1).itv)
  | Op.Mux -> (
      match (f 0).cst with
      | Some 1 -> f 1
      | Some 0 -> f 2
      | _ -> join (f 1) (f 2))
  | Op.Lut tt -> (
      let tt = tt land 0xff in
      if tt = 0 then of_bit false
      else if tt = 0xff then of_bit true
      else
        match all_const 3 with
        | Some vals -> of_const (Sem.eval op vals)
        | None -> top_bit)

(* the forward reduced product as a Dataflow instance: the seed is ⊤
   for the node's width (matching the old sweep's initial array) and
   the transfer is [transfer] above lifted to graph nodes *)
module Problem = struct
  type nonrec fact = fact

  let direction = Dataflow.Forward

  let init _g (nd : G.node) =
    match Op.result_width nd.op with Op.Word -> top_word | Op.Bit -> top_bit

  let transfer _g ~succs:_ (nd : G.node) get =
    transfer nd.op (fun i -> get nd.args.(i))
end

module Engine = Dataflow.Make (Problem)

let analyze (g : G.t) =
  let facts = Engine.solve g in
  Apex_telemetry.Counter.add "analysis.facts_computed" (G.length g);
  facts

let is_top (nd : G.node) f =
  match Op.result_width nd.op with
  | Op.Word -> fact_equal f top_word
  | Op.Bit -> fact_equal f top_bit

let pp_fact ppf f =
  match f.cst with
  | Some v -> Format.fprintf ppf "const %#x" v
  | None ->
      Format.fprintf ppf "%a" Itv.pp f.itv;
      if Kbits.known f.kb <> 0 then Format.fprintf ppf " %a" Kbits.pp f.kb

let fact_to_string f = Format.asprintf "%a" pp_fact f
