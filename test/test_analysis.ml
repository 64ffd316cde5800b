(* The abstract-interpretation framework: domain laws and transfer
   soundness for the wrapped-interval and known-bits domains (checked
   against the concrete 16-bit semantics on random samples), the reduced
   product, and the full validated-optimizer contract on every built-in
   application — interpreter equivalence on 256 seeded vectors plus
   idempotence of a second pass. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Sem = Apex_dfg.Sem
module Interp = Apex_dfg.Interp
module Apps = Apex_halide.Apps
module Itv = Apex_analysis.Itv
module Kbits = Apex_analysis.Kbits
module Absint = Apex_analysis.Absint
module Opt = Apex_analysis.Opt

let check = Alcotest.check
let mask = 0xffff
let rng () = Random.State.make [| 0xab5; 0x1e57 |]

(* --- wrapped intervals --- *)

let test_itv_basics () =
  let i = Itv.make 10 20 in
  Alcotest.(check bool) "mem lo" true (Itv.mem 10 i);
  Alcotest.(check bool) "mem hi" true (Itv.mem 20 i);
  Alcotest.(check bool) "not mem" false (Itv.mem 21 i);
  check Alcotest.int "size" 11 (Itv.size i);
  (* a segment across the 0xffff -> 0 seam *)
  let w = Itv.make 0xfff0 0x10 in
  Alcotest.(check bool) "wrap mem 0" true (Itv.mem 0 w);
  Alcotest.(check bool) "wrap mem 0xfff5" true (Itv.mem 0xfff5 w);
  Alcotest.(check bool) "wrap not mem" false (Itv.mem 0x8000 w);
  check Alcotest.int "wrap size" 33 (Itv.size w);
  (* whole-circle canonicalization *)
  Alcotest.(check bool) "full canonical" true (Itv.is_full (Itv.make 5 4));
  Alcotest.(check bool) "subset" true (Itv.subset i (Itv.make 0 100));
  Alcotest.(check bool) "wrap subset" true
    (Itv.subset (Itv.make 0xfff8 3) w);
  Alcotest.(check bool) "not subset" false (Itv.subset w i)

let test_itv_join () =
  let j = Itv.join (Itv.make 10 20) (Itv.make 30 40) in
  Alcotest.(check bool) "join covers a" true (Itv.subset (Itv.make 10 20) j);
  Alcotest.(check bool) "join covers b" true (Itv.subset (Itv.make 30 40) j);
  Alcotest.(check bool) "join stays small" true (Itv.size j <= 31);
  (* joining around the seam keeps the wrapped representation *)
  let w = Itv.join (Itv.const 0xfffe) (Itv.const 2) in
  Alcotest.(check bool) "seam join small" true (Itv.size w <= 5);
  check Alcotest.(pair int int) "unsigned bounds widen on seam" (0, mask)
    (Itv.unsigned_bounds w);
  check Alcotest.(pair int int) "signed bounds exact on seam" (-2, 2)
    (Itv.signed_bounds w)

(* Soundness: for values drawn from the argument segments, the concrete
   result must lie in the transfer's result segment. *)
let test_itv_transfer_soundness () =
  let st = rng () in
  let sample st i =
    (i.Itv.lo + Random.State.int st (Itv.size i)) land mask
  in
  let rand_itv st =
    let lo = Random.State.int st 0x10000 in
    let lo = lo land mask in
    let hi = (lo + Random.State.int st 0x200) land mask in
    Itv.make lo hi
  in
  let binops =
    [ ("add", Itv.add, Op.Add); ("sub", Itv.sub, Op.Sub);
      ("mul", Itv.mul, Op.Mul); ("and", Itv.logand, Op.And);
      ("or", Itv.logor, Op.Or); ("xor", Itv.logxor, Op.Xor);
      ("smax", Itv.smax, Op.Smax); ("smin", Itv.smin, Op.Smin);
      ("umax", Itv.umax, Op.Umax); ("umin", Itv.umin, Op.Umin);
      ("shl", Itv.shl, Op.Shl); ("lshr", Itv.lshr, Op.Lshr);
      ("ashr", Itv.ashr, Op.Ashr) ]
  in
  for _ = 1 to 400 do
    let a = rand_itv st and b = rand_itv st in
    let va = sample st a and vb = sample st b in
    List.iter
      (fun (name, f, op) ->
        let r = Sem.eval op [| va; vb |] in
        Alcotest.(check bool)
          (Printf.sprintf "%s(%#x,%#x) in transfer result" name va vb)
          true
          (Itv.mem r (f a b)))
      binops;
    Alcotest.(check bool) "not sound" true
      (Itv.mem (Sem.eval Op.Not [| va |]) (Itv.lognot a));
    Alcotest.(check bool) "abs sound" true
      (Itv.mem (Sem.eval Op.Abs [| va |]) (Itv.abs a))
  done

let test_itv_decided () =
  let lo = Itv.make 0 5 and hi = Itv.make 10 20 in
  check Alcotest.(option bool) "ult decided" (Some true)
    (Itv.ult_decided lo hi);
  check Alcotest.(option bool) "ule decided false" (Some false)
    (Itv.ule_decided hi lo);
  check Alcotest.(option bool) "overlap undecided" None
    (Itv.ult_decided (Itv.make 0 15) hi);
  check Alcotest.(option bool) "eq on disjoint" (Some false)
    (Itv.eq_decided lo hi);
  check Alcotest.(option bool) "eq singleton" (Some true)
    (Itv.eq_decided (Itv.const 7) (Itv.const 7));
  (* signed order: 0xffff is -1, below any non-negative value *)
  check Alcotest.(option bool) "slt signed" (Some true)
    (Itv.slt_decided (Itv.const 0xffff) (Itv.make 0 10))

(* --- known bits --- *)

(* abstraction of a value with some positions forgotten *)
let kb_of st v =
  let unknown = Random.State.int st 0x10000 in
  { Kbits.zeros = lnot v land mask land lnot unknown;
    ones = v land lnot unknown }

let test_kbits_basics () =
  check Alcotest.(option int) "const round-trip" (Some 0xbeef)
    (Kbits.is_const (Kbits.const 0xbeef));
  Alcotest.(check bool) "mem" true (Kbits.mem 0b1010 (Kbits.const 0b1010));
  let j = Kbits.join (Kbits.const 0b1100) (Kbits.const 0b1010) in
  check Alcotest.int "join keeps agreement" 0b1000 j.Kbits.ones;
  Alcotest.(check bool) "join zeros agree" true
    (j.Kbits.zeros land 0b0110 = 0 && j.Kbits.zeros land 0b0001 <> 0);
  check Alcotest.(option (pair int int)) "meet conflict" None
    (Option.map
       (fun (k : Kbits.t) -> (k.Kbits.zeros, k.Kbits.ones))
       (Kbits.meet (Kbits.const 1) (Kbits.const 2)));
  check Alcotest.int "of_unsigned_range prefix" 0xff00
    (Kbits.of_unsigned_range 0xff00 0xff3f).Kbits.ones

let test_kbits_transfer_soundness () =
  let st = rng () in
  let binops =
    [ ("and", Kbits.logand, Op.And); ("or", Kbits.logor, Op.Or);
      ("xor", Kbits.logxor, Op.Xor); ("add", Kbits.add, Op.Add);
      ("sub", Kbits.sub, Op.Sub); ("mul", Kbits.mul, Op.Mul);
      ("shl", Kbits.shl, Op.Shl); ("lshr", Kbits.lshr, Op.Lshr);
      ("ashr", Kbits.ashr, Op.Ashr) ]
  in
  for _ = 1 to 400 do
    let va = Random.State.int st 0x10000
    and vb = Random.State.int st 0x10000 in
    let a = kb_of st va and b = kb_of st vb in
    List.iter
      (fun (name, f, op) ->
        let r = Sem.eval op [| va; vb |] in
        Alcotest.(check bool)
          (Printf.sprintf "%s(%#x,%#x) consistent with known bits" name va vb)
          true
          (Kbits.mem r (f a b)))
      binops;
    Alcotest.(check bool) "not sound" true
      (Kbits.mem (Sem.eval Op.Not [| va |]) (Kbits.lognot a));
    let k = a in
    Alcotest.(check bool) "unsigned bounds sound" true
      (Kbits.unsigned_min k <= va && va <= Kbits.unsigned_max k)
  done

let test_kbits_add_exact_on_consts () =
  for a = 0 to 40 do
    for b = 0 to 40 do
      let va = a * 1637 land mask and vb = b * 2923 land mask in
      check
        Alcotest.(option int)
        (Printf.sprintf "const add %d+%d" va vb)
        (Some ((va + vb) land mask))
        (Kbits.is_const (Kbits.add (Kbits.const va) (Kbits.const vb)))
    done
  done

(* --- reduced product --- *)

let test_absint_reduce () =
  (* singleton interval becomes a constant *)
  let f =
    Absint.reduce { Absint.itv = Itv.const 42; kb = Kbits.top; cst = None }
  in
  check Alcotest.(option int) "singleton -> cst" (Some 42) f.Absint.cst;
  check Alcotest.(option int) "singleton -> kb" (Some 42)
    (Kbits.is_const f.Absint.kb);
  (* fully-known bits become a constant *)
  let f =
    Absint.reduce
      { Absint.itv = Itv.full; kb = Kbits.const 0x1234; cst = None }
  in
  check Alcotest.(option int) "kb -> cst" (Some 0x1234) f.Absint.cst;
  Alcotest.(check bool) "kb tightens itv" true
    (Itv.equal f.Absint.itv (Itv.const 0x1234));
  (* known bits bound the interval *)
  let f =
    Absint.reduce
      { Absint.itv = Itv.full;
        kb = { Kbits.zeros = 0xff00; ones = 0 };
        cst = None }
  in
  Alcotest.(check bool) "kb bounds itv" true
    (Itv.subset f.Absint.itv (Itv.make 0 0xff))

let test_absint_transfer_folds () =
  let const v _ = Absint.of_const v in
  let f = Absint.transfer Op.Add (fun i -> const (if i = 0 then 3 else 4) i) in
  check Alcotest.(option int) "3+4" (Some 7) f.Absint.cst;
  let f = Absint.transfer Op.Ashr (fun i -> const (if i = 0 then 0x8000 else 20) i) in
  check Alcotest.(option int) "saturating ashr folds" (Some 0xffff)
    f.Absint.cst

let test_absint_analyze () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let c3 = G.Builder.add0 b (Op.Const 3) in
  let c4 = G.Builder.add0 b (Op.Const 4) in
  let s = G.Builder.add2 b Op.Add c3 c4 in
  let m = G.Builder.add2 b Op.Umin x s in
  let r = G.Builder.add1 b Op.Reg m in
  ignore (G.Builder.add1 b (Op.Output "o") r);
  let g = G.Builder.finish b in
  let facts = Absint.analyze g in
  check Alcotest.(option int) "const sum" (Some 7) facts.(s).Absint.cst;
  (* umin with a constant bounds the result even for an unknown input *)
  Alcotest.(check bool) "umin bounded" true
    (Itv.subset facts.(m).Absint.itv (Itv.make 0 7));
  (* registers cross a cycle boundary: the fact must widen to top *)
  Alcotest.(check bool) "reg is top" true
    (Absint.is_top (G.nodes g).(r) facts.(r))

(* --- variable-amount shifts: exhaustive small-input sweeps --- *)

(* Every value of a small segment shifted by every amount 0..20
   (through the >= 16 saturation point), both with a constant-amount
   segment and with one wide unknown-amount segment: the concrete
   result must lie in the abstract transfer's result. *)
let test_itv_var_shift_exhaustive () =
  let shifts =
    [ ("shl", Itv.shl, Op.Shl); ("lshr", Itv.lshr, Op.Lshr);
      ("ashr", Itv.ashr, Op.Ashr) ]
  in
  let bases = [ 0; 0x00fc; 0x7ffc; 0x8000; 0xfff8 ] in
  List.iter
    (fun (name, f, op) ->
      List.iter
        (fun base ->
          let a = Itv.make base ((base + 7) land mask) in
          let any_amt = f a (Itv.make 0 20) in
          for amt = 0 to 20 do
            let per_amt = f a (Itv.const amt) in
            for v = 0 to 7 do
              let va = (base + v) land mask in
              let c = Sem.eval op [| va; amt |] in
              Alcotest.(check bool)
                (Printf.sprintf "%s(%#x, const %d) sound" name va amt)
                true (Itv.mem c per_amt);
              Alcotest.(check bool)
                (Printf.sprintf "%s(%#x, [0,20] at %d) sound" name va amt)
                true (Itv.mem c any_amt)
            done
          done)
        bases)
    shifts

let test_kbits_var_shift_exhaustive () =
  let shifts =
    [ ("shl", Kbits.shl, Op.Shl); ("lshr", Kbits.lshr, Op.Lshr);
      ("ashr", Kbits.ashr, Op.Ashr) ]
  in
  let values = [ 0; 1; 0x00ff; 0x5555; 0x8000; 0xabcd; 0xffff ] in
  List.iter
    (fun (name, f, op) ->
      List.iter
        (fun v ->
          let a = Kbits.const v in
          (* fully known amount, exhaustively through saturation *)
          for amt = 0 to 20 do
            let c = Sem.eval op [| v; amt |] in
            Alcotest.(check bool)
              (Printf.sprintf "%s(%#x, const %d) sound" name v amt)
              true
              (Kbits.mem c (f a (Kbits.const amt)));
            (* amount with unknown bits: only zeros/ones both shifted
               ways may survive *)
            let fuzzy_amt =
              { Kbits.zeros = lnot amt land mask land lnot 0b101;
                ones = amt land lnot 0b101 }
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s(%#x, fuzzy %d) sound" name v amt)
              true
              (Kbits.mem c (f a fuzzy_amt))
          done)
        values)
    shifts

(* --- Lut vs Sem: exhaustive over every table and input combination --- *)

let test_lut_exhaustive () =
  for tt = 0 to 255 do
    for idx = 0 to 7 do
      let a = (idx lsr 2) land 1
      and b = (idx lsr 1) land 1
      and c = idx land 1 in
      check Alcotest.int
        (Printf.sprintf "lut table %#x index %d" tt idx)
        ((tt lsr idx) land 1)
        (Sem.eval (Op.Lut tt) [| a; b; c |])
    done
  done;
  (* non-boolean word inputs must be truncated to their low bit *)
  check Alcotest.int "lut truncates word inputs" 1
    (Sem.eval (Op.Lut 0x80) [| 0xffff; 3; 0xab01 |])

(* --- the generic dataflow engine --- *)

let test_dataflow_backward_liveness () =
  (* a reachability problem distinct from Demand: node is live iff an
     output transitively uses it *)
  let module Live = struct
    type fact = bool

    let direction = Apex_analysis.Dataflow.Backward

    let init _ (nd : G.node) =
      match nd.G.op with Op.Output _ | Op.Bit_output _ -> true | _ -> false

    let transfer _ ~succs (nd : G.node) get =
      match nd.G.op with
      | Op.Output _ | Op.Bit_output _ -> true
      | _ -> List.exists get succs.(nd.G.id)
  end in
  let module E = Apex_analysis.Dataflow.Make (Live) in
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let s = G.Builder.add2 b Op.Add x y in
  let dead = G.Builder.add2 b Op.Mul x y in
  let dead2 = G.Builder.add1 b Op.Not dead in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  let g = G.Builder.finish b in
  let live = E.solve g in
  Alcotest.(check bool) "used input live" true live.(x);
  Alcotest.(check bool) "sum live" true live.(s);
  Alcotest.(check bool) "dead cone dead" false (live.(dead) || live.(dead2))

let test_dataflow_counter () =
  Apex_telemetry.Registry.reset ();
  Apex_telemetry.Registry.enable ();
  Fun.protect ~finally:Apex_telemetry.Registry.disable @@ fun () ->
  let g = (Apps.by_name "camera").Apps.graph in
  ignore (Absint.analyze g);
  (* one sweep: every node visited exactly once *)
  check Alcotest.int "analysis.dataflow.visits" (G.length g)
    (Apex_telemetry.Counter.get "analysis.dataflow.visits")

(* the one-sweep engine against chaotic iteration: start every node at
   ⊤ for its width and re-apply [Absint.transfer] to every node, in
   descending id order (users before their arguments, the worst order
   for a forward problem), until no fact changes *)
let reference_facts g =
  let nodes = G.nodes g in
  let top (nd : G.node) =
    match Op.result_width nd.op with
    | Op.Word -> { Absint.itv = Itv.full; kb = Kbits.top; cst = None }
    | Op.Bit -> { Absint.itv = Itv.bit_top; kb = Kbits.bit_top; cst = None }
  in
  let facts = Array.map top nodes in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = Array.length nodes - 1 downto 0 do
      let nd = nodes.(i) in
      let f = Absint.transfer nd.op (fun p -> facts.(nd.args.(p))) in
      if f <> facts.(i) then begin
        facts.(i) <- f;
        changed := true
      end
    done
  done;
  facts

let prop_absint_sweep_is_fixpoint =
  QCheck.Test.make ~name:"random DAGs: one sweep = chaotic iteration"
    ~count:300 QCheck.int (fun seed ->
      let g = Dags.random ~size:40 (Random.State.make [| seed |]) in
      Absint.analyze g = reference_facts g)

(* --- backward demanded bits --- *)

module Demand = Apex_analysis.Demand
module Width = Apex_analysis.Width

let test_demand_masks () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let k8 = G.Builder.add0 b (Op.Const 8) in
  let sh = G.Builder.add2 b Op.Shl x k8 in
  ignore (G.Builder.add1 b (Op.Output "o") sh);
  let g = G.Builder.finish b in
  let d = Demand.analyze g in
  check Alcotest.int "output demands everything" 0xffff d.(sh);
  (* x << 8: only x's low byte can reach the kept result bits *)
  check Alcotest.int "shl translates demand" 0x00ff d.(x);
  (* lshr pushes demand the other way *)
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let k8 = G.Builder.add0 b (Op.Const 8) in
  let sh = G.Builder.add2 b Op.Lshr x k8 in
  ignore (G.Builder.add1 b (Op.Output "o") sh);
  let g = G.Builder.finish b in
  let d = Demand.analyze g in
  check Alcotest.int "lshr translates demand" 0xff00 d.(x)

let test_demand_and_const_sibling () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let m = G.Builder.add0 b (Op.Const 0x0f0) in
  let a = G.Builder.add2 b Op.And x m in
  ignore (G.Builder.add1 b (Op.Output "o") a);
  let g = G.Builder.finish b in
  let d = Demand.analyze g in
  check Alcotest.int "and with const mask narrows demand" 0x00f0 d.(x)

let test_demand_mux_lut_cmp_reg () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let s0 = G.Builder.add0 b (Op.Bit_input "s0") in
  let s1 = G.Builder.add0 b (Op.Bit_input "s1") in
  let s2 = G.Builder.add0 b (Op.Bit_input "s2") in
  let l = G.Builder.add3 b (Op.Lut 0xd8) s0 s1 s2 in
  let c = G.Builder.add2 b Op.Ult x y in
  let m = G.Builder.add3 b Op.Mux c x y in
  let r = G.Builder.add1 b Op.Reg m in
  ignore (G.Builder.add1 b (Op.Output "o") r);
  ignore (G.Builder.add1 b (Op.Bit_output "p") l);
  let g = G.Builder.finish b in
  let d = Demand.analyze g in
  check Alcotest.int "lut demands one bit of each select" 1 d.(s0);
  check Alcotest.int "lut demand s1" 1 d.(s1);
  check Alcotest.int "lut demand s2" 1 d.(s2);
  check Alcotest.int "mux select demands one bit" 1 d.(c);
  (* the comparator needs full compare width of both operands; the reg
     widens the mux demand across the cycle boundary *)
  check Alcotest.int "cmp operand full width" 0xffff d.(x);
  check Alcotest.int "reg widens across backedge" 0xffff d.(m)

let test_demand_dead_node () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let s = G.Builder.add2 b Op.Add x y in
  let dead = G.Builder.add2 b Op.Mul x y in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  let g = G.Builder.finish b in
  let d = Demand.analyze g in
  check Alcotest.int "dead node demanded nowhere" 0 d.(dead);
  Alcotest.(check bool) "is_live" true (Demand.is_live d s);
  Alcotest.(check bool) "not is_live" false (Demand.is_live d dead)

(* Soundness: flipping argument bits outside the demanded mask never
   changes any graph output, on random vectors over small kernels. *)
let test_demand_soundness () =
  let st = rng () in
  List.iter
    (fun name ->
      let g = (Apps.by_name name).Apps.graph in
      let d = Demand.analyze g in
      let nodes = G.nodes g in
      for _ = 1 to 20 do
        let env = Interp.random_env st g in
        let base = Interp.run g env in
        (* flip undemanded bits of every input *)
        let env' =
          List.map
            (fun (n, v) ->
              let id =
                Array.fold_left
                  (fun acc (nd : G.node) ->
                    match nd.G.op with
                    | Op.Input n' when n' = n -> nd.G.id
                    | Op.Bit_input n' when n' = n -> nd.G.id
                    | _ -> acc)
                  (-1) nodes
              in
              let natural =
                match Op.result_width nodes.(id).G.op with
                | Op.Word -> 0xffff
                | Op.Bit -> 1
              in
              let flip = Random.State.int st 0x10000 land lnot d.(id) in
              (n, (v lxor flip) land natural))
            env
        in
        Alcotest.(check bool)
          (name ^ ": undemanded input bits are unobservable")
          true
          (Interp.run g env' = base)
      done)
    [ "fast"; "camera" ]

(* --- width inference --- *)

let test_width_narrows_masked_add () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let m = G.Builder.add0 b (Op.Const 0xff) in
  let xl = G.Builder.add2 b Op.And x m in
  let yl = G.Builder.add2 b Op.And y m in
  let s = G.Builder.add2 b Op.Add xl yl in
  ignore (G.Builder.add1 b (Op.Output "o") s);
  let g = G.Builder.finish b in
  let w = Width.infer g in
  Alcotest.(check bool) "validated" true w.Width.validated;
  check Alcotest.int "masked args are 8 bits wide" 8 w.Width.widths.(xl);
  check Alcotest.int "their sum is 9 bits wide" 9 w.Width.widths.(s);
  Alcotest.(check bool) "narrowings proved" true (w.Width.proved > 0);
  check Alcotest.int "nothing tested-only" 0 w.Width.tested_only;
  (* the input graph is left alone; the widths attach to a copy *)
  Alcotest.(check bool) "input graph untouched" true (G.widths g = None);
  match G.widths (G.with_widths g w.Width.widths) with
  | Some a -> check Alcotest.int "annotated" 9 a.(s)
  | None -> Alcotest.fail "with_widths must annotate the copy"

let test_width_deterministic () =
  let g = (Apps.by_name "fast").Apps.graph in
  let w1 = Width.infer g in
  let w2 = Width.infer (Apps.by_name "fast").Apps.graph in
  check Alcotest.(list int) "same widths on every run"
    (Array.to_list w1.Width.widths)
    (Array.to_list w2.Width.widths)

let test_width_apps_narrow () =
  (* the paper-level claim: a strict per-node width reduction on most
     built-in kernels, every narrowing proved or tested *)
  let narrowed = ref 0 in
  List.iter
    (fun (a : Apps.t) ->
      let w = Width.infer a.Apps.graph in
      Alcotest.(check bool) (a.Apps.name ^ " validated") true
        w.Width.validated;
      Array.iteri
        (fun i wi ->
          Alcotest.(check bool)
            (Printf.sprintf "%s node %d width in range" a.Apps.name i)
            true
            (wi >= 1 && wi <= w.Width.naturals.(i)))
        w.Width.widths;
      if Width.narrowed_nodes w > 0 then incr narrowed)
    (Apps.evaluated () @ Apps.unseen ());
  Alcotest.(check bool)
    (Printf.sprintf "at least 4 of 9 apps narrow (got %d)" !narrowed)
    true (!narrowed >= 4)

let test_width_smt_exhaust_ladder () =
  (* rung 2: with SMT gone, the same narrowings survive on differential
     evidence — identical widths, degraded outcome, tested-only > 0 *)
  let g () = (Apps.by_name "fast").Apps.graph in
  let proved = Width.infer (g ()) in
  Apex_guard.Fault.arm "width-smt-exhaust";
  Fun.protect ~finally:Apex_guard.Fault.disarm @@ fun () ->
  let degraded = Width.infer (g ()) in
  Alcotest.(check bool) "still validated" true degraded.Width.validated;
  Alcotest.(check bool) "tested-only narrowings" true
    (degraded.Width.tested_only > 0);
  check Alcotest.int "nothing proved under the fault" 0
    degraded.Width.proved;
  check Alcotest.(list int) "identical widths with and without SMT"
    (Array.to_list proved.Width.widths)
    (Array.to_list degraded.Width.widths);
  Alcotest.(check bool) "degraded outcome" true
    (match degraded.Width.outcome with
    | Apex_guard.Outcome.Degraded (Apex_guard.Outcome.Fault f) ->
        f = "width-smt-exhaust"
    | _ -> false)

let test_width_differential_catches_bogus () =
  (* rung 3's detector: the differential check must refuse a width
     assignment that truncates live bits *)
  let g = (Apps.by_name "fast").Apps.graph in
  let w = Width.infer g in
  Alcotest.(check bool) "honest live masks pass" true
    (Width.differential_check g w.Width.live);
  let bogus = Array.copy w.Width.live in
  (* claim some wide live word node only keeps its low bit *)
  let victim = ref (-1) in
  Array.iteri
    (fun i (nd : G.node) ->
      if
        !victim < 0 && Op.is_compute nd.G.op
        && Op.result_width nd.G.op = Op.Word
        && Width.width_of_mask bogus.(i) > 4
      then victim := i)
    (G.nodes g);
  Alcotest.(check bool) "found a victim" true (!victim >= 0);
  bogus.(!victim) <- 1;
  Alcotest.(check bool) "bogus live masks refuted" false
    (Width.differential_check g bogus)

let test_width_counters () =
  Apex_telemetry.Registry.reset ();
  Apex_telemetry.Registry.enable ();
  Fun.protect ~finally:Apex_telemetry.Registry.disable @@ fun () ->
  ignore (Width.infer (Apps.by_name "fast").Apps.graph);
  Alcotest.(check bool) "checks_run" true
    (Apex_telemetry.Counter.get "analysis.width.checks_run" > 0);
  Alcotest.(check bool) "cones_proved" true
    (Apex_telemetry.Counter.get "analysis.width.cones_proved" > 0);
  Alcotest.(check bool) "narrowed_nodes" true
    (Apex_telemetry.Counter.get "analysis.width.narrowed_nodes" > 0);
  Alcotest.(check bool) "bits_saved" true
    (Apex_telemetry.Counter.get "analysis.width.bits_saved" > 0)

(* --- the optimizer contract on every built-in application --- *)

let all_apps () = Apps.evaluated () @ Apps.unseen ()

let test_opt_apps_equivalent () =
  let reduced = ref 0 in
  List.iter
    (fun (a : Apps.t) ->
      let r = Opt.run a.Apps.graph in
      Alcotest.(check bool)
        (a.Apps.name ^ " validated")
        true r.Opt.validated;
      check Alcotest.int
        (a.Apps.name ^ " no rejected cones")
        0 r.Opt.stats.Opt.cones_rejected;
      Alcotest.(check bool)
        (a.Apps.name ^ " interpreter-equivalent on 256 vectors")
        true
        (Opt.equiv_check ~vectors:256 a.Apps.graph r.Opt.graph);
      if r.Opt.stats.Opt.after_nodes < r.Opt.stats.Opt.before_nodes then
        incr reduced)
    (all_apps ());
  (* the optimizer must actually bite on a few kernels *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 apps shrink (got %d)" !reduced)
    true (!reduced >= 3)

let test_opt_idempotent () =
  List.iter
    (fun (a : Apps.t) ->
      let once = Opt.run a.Apps.graph in
      let twice = Opt.run once.Opt.graph in
      check Alcotest.int
        (a.Apps.name ^ " second pass changes nothing")
        once.Opt.stats.Opt.after_nodes twice.Opt.stats.Opt.after_nodes;
      check Alcotest.int
        (a.Apps.name ^ " second pass rewrites nothing")
        0
        (twice.Opt.stats.Opt.const_folds + twice.Opt.stats.Opt.identities
        + twice.Opt.stats.Opt.cse_merged + twice.Opt.stats.Opt.dce_removed))
    (all_apps ())

let test_opt_emits_counters () =
  Apex_telemetry.Registry.reset ();
  Apex_telemetry.Registry.enable ();
  Fun.protect ~finally:Apex_telemetry.Registry.disable @@ fun () ->
  ignore (Opt.run (Apps.by_name "camera").Apps.graph);
  Alcotest.(check bool) "analysis.facts_computed" true
    (Apex_telemetry.Counter.get "analysis.facts_computed" > 0);
  Alcotest.(check bool) "analysis.nodes_eliminated" true
    (Apex_telemetry.Counter.get "analysis.nodes_eliminated" > 0);
  Alcotest.(check bool) "analysis.cones_proved" true
    (Apex_telemetry.Counter.get "analysis.cones_proved" > 0)

let () =
  Alcotest.run "analysis"
    [ ( "itv",
        [ Alcotest.test_case "basics" `Quick test_itv_basics;
          Alcotest.test_case "join" `Quick test_itv_join;
          Alcotest.test_case "transfer soundness" `Quick
            test_itv_transfer_soundness;
          Alcotest.test_case "decided predicates" `Quick test_itv_decided;
          Alcotest.test_case "variable shifts exhaustive" `Quick
            test_itv_var_shift_exhaustive ] );
      ( "kbits",
        [ Alcotest.test_case "basics" `Quick test_kbits_basics;
          Alcotest.test_case "transfer soundness" `Quick
            test_kbits_transfer_soundness;
          Alcotest.test_case "exact const add" `Quick
            test_kbits_add_exact_on_consts;
          Alcotest.test_case "variable shifts exhaustive" `Quick
            test_kbits_var_shift_exhaustive ] );
      ( "sem",
        [ Alcotest.test_case "lut exhaustive" `Quick test_lut_exhaustive ] );
      ( "dataflow",
        [ Alcotest.test_case "backward liveness" `Quick
            test_dataflow_backward_liveness;
          Alcotest.test_case "visit counter" `Quick test_dataflow_counter;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 5 |])
            prop_absint_sweep_is_fixpoint ] );
      ( "demand",
        [ Alcotest.test_case "shift masks" `Quick test_demand_masks;
          Alcotest.test_case "const sibling" `Quick
            test_demand_and_const_sibling;
          Alcotest.test_case "mux/lut/cmp/reg" `Quick
            test_demand_mux_lut_cmp_reg;
          Alcotest.test_case "dead node" `Quick test_demand_dead_node;
          Alcotest.test_case "soundness" `Quick test_demand_soundness ] );
      ( "width",
        [ Alcotest.test_case "narrows masked add" `Quick
            test_width_narrows_masked_add;
          Alcotest.test_case "deterministic" `Quick test_width_deterministic;
          Alcotest.test_case "apps narrow" `Quick test_width_apps_narrow;
          Alcotest.test_case "smt-exhaust ladder" `Quick
            test_width_smt_exhaust_ladder;
          Alcotest.test_case "differential catches bogus" `Quick
            test_width_differential_catches_bogus;
          Alcotest.test_case "telemetry" `Quick test_width_counters ] );
      ( "absint",
        [ Alcotest.test_case "reduce" `Quick test_absint_reduce;
          Alcotest.test_case "transfer folds" `Quick test_absint_transfer_folds;
          Alcotest.test_case "analyze" `Quick test_absint_analyze ] );
      ( "opt",
        [ Alcotest.test_case "apps equivalent" `Quick test_opt_apps_equivalent;
          Alcotest.test_case "idempotent" `Quick test_opt_idempotent;
          Alcotest.test_case "telemetry" `Quick test_opt_emits_counters ] ) ]
