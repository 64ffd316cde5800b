module Op = Apex_dfg.Op

type ctx = {
  s : Sat.t;
  tt : int;
  ff : int;
  word_width : int;
  (* structural hashing: (tag, a, b) -> output literal.  Identical
     subcircuits collapse to one literal, which makes equivalence
     queries between structurally similar datapaths (the common case
     for rewrite-rule verification) nearly free. *)
  gates : (int * int * int, int) Hashtbl.t;
}

type bv = int array

let create ?(word_width = 8) () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ Sat.pos v ];
  { s; tt = Sat.pos v; ff = Sat.neg v; word_width; gates = Hashtbl.create 1024 }

let sat c = c.s

let word_width c = c.word_width
let false_lit c = c.ff

let fresh c width = Array.init width (fun _ -> Sat.pos (Sat.new_var c.s))

let const c ~width v =
  Array.init width (fun i -> if (v lsr i) land 1 = 1 then c.tt else c.ff)

let lit_of_bool c b = if b then c.tt else c.ff

(* --- gates with constant folding --- *)

let lit_not l = Sat.negate l

let lit_and c a b =
  if a = c.ff || b = c.ff then c.ff
  else if a = c.tt then b
  else if b = c.tt then a
  else if a = b then a
  else if a = lit_not b then c.ff
  else begin
    let x = min a b and y = max a b in
    match Hashtbl.find_opt c.gates (0, x, y) with
    | Some r -> r
    | None ->
        let r = Sat.pos (Sat.new_var c.s) in
        Sat.add_clause c.s [ Sat.negate r; a ];
        Sat.add_clause c.s [ Sat.negate r; b ];
        Sat.add_clause c.s [ r; Sat.negate a; Sat.negate b ];
        Hashtbl.replace c.gates (0, x, y) r;
        r
  end

let lit_or c a b = lit_not (lit_and c (lit_not a) (lit_not b))

let lit_xor c a b =
  if a = c.ff then b
  else if b = c.ff then a
  else if a = c.tt then lit_not b
  else if b = c.tt then lit_not a
  else if a = b then c.ff
  else if a = lit_not b then c.tt
  else begin
    (* normalize: xor is invariant under joint complement; strip the
       sign parity into the output *)
    let parity = (a land 1) lxor (b land 1) in
    let a0 = a land lnot 1 and b0 = b land lnot 1 in
    let x = min a0 b0 and y = max a0 b0 in
    let base =
      match Hashtbl.find_opt c.gates (1, x, y) with
      | Some r -> r
      | None ->
          let r = Sat.pos (Sat.new_var c.s) in
          let a = x and b = y in
          Sat.add_clause c.s [ Sat.negate r; a; b ];
          Sat.add_clause c.s [ Sat.negate r; Sat.negate a; Sat.negate b ];
          Sat.add_clause c.s [ r; Sat.negate a; b ];
          Sat.add_clause c.s [ r; a; Sat.negate b ];
          Hashtbl.replace c.gates (1, x, y) r;
          r
    in
    if parity = 1 then lit_not base else base
  end

let lit_mux c s a b =
  if s = c.tt then a
  else if s = c.ff then b
  else if a = b then a
  else lit_or c (lit_and c s a) (lit_and c (lit_not s) b)

(* --- arithmetic --- *)

let full_adder c a b cin =
  let sum = lit_xor c (lit_xor c a b) cin in
  let carry = lit_or c (lit_and c a b) (lit_and c cin (lit_xor c a b)) in
  (sum, carry)

let add c a b =
  let w = Array.length a in
  let out = Array.make w c.ff in
  let carry = ref c.ff in
  for i = 0 to w - 1 do
    let s, co = full_adder c a.(i) b.(i) !carry in
    out.(i) <- s;
    carry := co
  done;
  out

let bv_not a = Array.map lit_not a

let sub c a b =
  (* a + ~b + 1 *)
  let w = Array.length a in
  let out = Array.make w c.ff in
  let carry = ref c.tt in
  let nb = bv_not b in
  for i = 0 to w - 1 do
    let s, co = full_adder c a.(i) nb.(i) !carry in
    out.(i) <- s;
    carry := co
  done;
  out

let neg c a = sub c (const c ~width:(Array.length a) 0) a

let mul c a b =
  let w = Array.length a in
  let acc = ref (const c ~width:w 0) in
  for i = 0 to w - 1 do
    (* partial product (a << i) & b_i *)
    let partial =
      Array.init w (fun j -> if j < i then c.ff else lit_and c a.(j - i) b.(i))
    in
    acc := add c !acc partial
  done;
  !acc

(* unsigned a < b via the borrow chain of a - b *)
let ult c a b =
  let w = Array.length a in
  let borrow = ref c.ff in
  for i = 0 to w - 1 do
    let d = lit_xor c a.(i) b.(i) in
    borrow := lit_mux c d b.(i) !borrow
  done;
  !borrow

let slt c a b =
  let w = Array.length a in
  let flip v =
    Array.mapi (fun i l -> if i = w - 1 then lit_not l else l) v
  in
  ult c (flip a) (flip b)

let eq c a b =
  let w = Array.length a in
  let r = ref c.tt in
  for i = 0 to w - 1 do
    r := lit_and c !r (lit_not (lit_xor c a.(i) b.(i)))
  done;
  !r

let mux c s a b = Array.init (Array.length a) (fun i -> lit_mux c s a.(i) b.(i))

(* barrel shifter; amounts >= width saturate like Sem.shift_amount *)
let shifter c dir a amt =
  let w = Array.length a in
  let fill =
    match dir with
    | `Shl | `Lshr -> c.ff
    | `Ashr -> a.(w - 1)
  in
  let shift_by_const v k =
    Array.init w (fun i ->
        match dir with
        | `Shl -> if i - k >= 0 then v.(i - k) else c.ff
        | `Lshr -> if i + k < w then v.(i + k) else c.ff
        | `Ashr -> if i + k < w then v.(i + k) else fill)
  in
  let stages =
    let rec go k = if 1 lsl k >= w then k + 1 else go (k + 1) in
    go 0
  in
  let result = ref a in
  for k = 0 to min (stages - 1) (Array.length amt - 1) do
    let shifted = shift_by_const !result (1 lsl k) in
    result := mux c amt.(k) shifted !result
  done;
  (* any higher amount bit set: saturate *)
  let big = ref c.ff in
  for k = stages to Array.length amt - 1 do
    big := lit_or c !big amt.(k)
  done;
  (* also saturate when the in-range bits encode >= w for non powers of 2 *)
  let ge_w =
    let wconst = const c ~width:(Array.length amt) w in
    lit_not (ult c amt wconst)
  in
  let sat_lit = lit_or c !big ge_w in
  let fill_vec = Array.make w fill in
  mux c sat_lit fill_vec !result

let eval_op c (op : Op.t) (args : bv array) =
  let a i = args.(i) in
  let w () = Array.length (a 0) in
  let bit l = [| l |] in
  match op with
  | Op.Add -> add c (a 0) (a 1)
  | Op.Sub -> sub c (a 0) (a 1)
  | Op.Mul -> mul c (a 0) (a 1)
  | Op.Shl -> shifter c `Shl (a 0) (a 1)
  | Op.Lshr -> shifter c `Lshr (a 0) (a 1)
  | Op.Ashr -> shifter c `Ashr (a 0) (a 1)
  | Op.And -> Array.init (w ()) (fun i -> lit_and c (a 0).(i) (a 1).(i))
  | Op.Or -> Array.init (w ()) (fun i -> lit_or c (a 0).(i) (a 1).(i))
  | Op.Xor -> Array.init (w ()) (fun i -> lit_xor c (a 0).(i) (a 1).(i))
  | Op.Not -> bv_not (a 0)
  | Op.Abs ->
      let x = a 0 in
      mux c x.(w () - 1) (neg c x) x
  | Op.Smax -> mux c (slt c (a 0) (a 1)) (a 1) (a 0)
  | Op.Smin -> mux c (slt c (a 0) (a 1)) (a 0) (a 1)
  | Op.Umax -> mux c (ult c (a 0) (a 1)) (a 1) (a 0)
  | Op.Umin -> mux c (ult c (a 0) (a 1)) (a 0) (a 1)
  | Op.Eq -> bit (eq c (a 0) (a 1))
  | Op.Neq -> bit (lit_not (eq c (a 0) (a 1)))
  | Op.Slt -> bit (slt c (a 0) (a 1))
  | Op.Sle -> bit (lit_not (slt c (a 1) (a 0)))
  | Op.Ult -> bit (ult c (a 0) (a 1))
  | Op.Ule -> bit (lit_not (ult c (a 1) (a 0)))
  | Op.Mux -> mux c (a 0).(0) (a 1) (a 2)
  | Op.Lut tt ->
      let s0 = (a 0).(0) and s1 = (a 1).(0) and s2 = (a 2).(0) in
      (* index = s0*4 + s1*2 + s2, matching Sem.eval *)
      let r = ref c.ff in
      for idx = 0 to 7 do
        if (tt lsr idx) land 1 = 1 then begin
          let m0 = if idx land 4 <> 0 then s0 else lit_not s0 in
          let m1 = if idx land 2 <> 0 then s1 else lit_not s1 in
          let m2 = if idx land 1 <> 0 then s2 else lit_not s2 in
          r := lit_or c !r (lit_and c m0 (lit_and c m1 m2))
        end
      done;
      bit !r
  | Op.Const v -> const c ~width:c.word_width v
  | Op.Bit_const b -> bit (lit_of_bool c b)
  | Op.Reg | Op.Reg_file _ -> a 0
  | Op.Input _ | Op.Bit_input _ | Op.Output _ | Op.Bit_output _ ->
      invalid_arg ("Bv.eval_op: no semantics for " ^ Op.mnemonic op)

let assert_equal c a b =
  if Array.length a <> Array.length b then
    invalid_arg "Bv.assert_equal: width mismatch";
  Array.iteri
    (fun i la ->
      let lb = b.(i) in
      Sat.add_clause c.s [ Sat.negate la; lb ];
      Sat.add_clause c.s [ la; Sat.negate lb ])
    a

let assert_not_equal c xs ys =
  if List.length xs <> List.length ys then
    invalid_arg "Bv.assert_not_equal: list length mismatch";
  let diffs =
    List.concat
      (List.map2
         (fun x y ->
           if Array.length x <> Array.length y then
             invalid_arg "Bv.assert_not_equal: width mismatch";
           Array.to_list (Array.mapi (fun i lx -> lit_xor c lx y.(i)) x))
         xs ys)
  in
  Sat.add_clause c.s diffs

let model_of c v =
  Array.to_list v
  |> List.mapi (fun i l ->
         let value =
           if l = c.tt then true
           else if l = c.ff then false
           else begin
             let b = Sat.model_value c.s (l lsr 1) in
             if l land 1 = 0 then b else not b
           end
         in
         if value then 1 lsl i else 0)
  |> List.fold_left ( + ) 0
