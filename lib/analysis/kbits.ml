(* Known-bits domain: a tri-state mask per bit position.

   [zeros] is the set of bits proven 0, [ones] the set proven 1; a bit
   in neither set is unknown.  Invariant: [zeros land ones = 0].  The
   top element knows nothing.  Word facts use all 16 bits; facts for
   Bit-width nodes always know bits 1..15 are zero. *)

let mask = 0xffff

type t = { zeros : int; ones : int }

let top = { zeros = 0; ones = 0 }

(* bits 1..15 of any Bit-width value are zero by construction *)
let bit_top = { zeros = mask lxor 1; ones = 0 }

let const v =
  let v = v land mask in
  { zeros = mask land lnot v; ones = v }

let known k = k.zeros lor k.ones

let is_const k = if known k = mask then Some k.ones else None

let equal a b = a.zeros = b.zeros && a.ones = b.ones

let mem v k =
  let v = v land mask in
  v land k.zeros = 0 && v land k.ones = k.ones

(* join = keep only bits both sides agree on *)
let join a b =
  { zeros = a.zeros land b.zeros; ones = a.ones land b.ones }

(* meet of compatible facts (used for reduction); if they conflict the
   caller's graph is unreachable — keep it sound by not claiming both *)
let meet a b =
  let zeros = a.zeros lor b.zeros and ones = a.ones lor b.ones in
  if zeros land ones <> 0 then None else Some { zeros; ones }

(* --- transfer functions --- *)

let logand a b =
  { zeros = a.zeros lor b.zeros; ones = a.ones land b.ones }

let logor a b =
  { zeros = a.zeros land b.zeros; ones = a.ones lor b.ones }

let logxor a b =
  let k = known a land known b in
  let v = (a.ones lxor b.ones) land k in
  { zeros = k land lnot v; ones = v }

let lognot a = { zeros = a.ones; ones = a.zeros }

(* tri-state bit *)
type tri = K0 | K1 | U

let tri_of k i =
  if k.zeros land (1 lsl i) <> 0 then K0
  else if k.ones land (1 lsl i) <> 0 then K1
  else U

(* ripple-carry addition with carry-knowledge tracking: the sum bit is
   known only when both operand bits and the incoming carry are known;
   the carry out is known whenever a majority of the three is known to
   agree *)
let add_with_carry a b carry0 =
  let zeros = ref 0 and ones = ref 0 in
  let carry = ref carry0 in
  for i = 0 to 15 do
    let x = tri_of a i and y = tri_of b i and c = !carry in
    (match (x, y, c) with
    | K0, K0, K0 | K0, K1, K1 | K1, K0, K1 | K1, K1, K0 ->
        zeros := !zeros lor (1 lsl i)
    | K1, K0, K0 | K0, K1, K0 | K0, K0, K1 | K1, K1, K1 ->
        ones := !ones lor (1 lsl i)
    | _ -> ());
    let ones_of = List.length (List.filter (fun t -> t = K1) [ x; y; c ]) in
    let zeros_of = List.length (List.filter (fun t -> t = K0) [ x; y; c ]) in
    carry := if ones_of >= 2 then K1 else if zeros_of >= 2 then K0 else U
  done;
  { zeros = !zeros; ones = !ones }

let add a b = add_with_carry a b K0

(* a - b = a + ~b + 1 *)
let sub a b = add_with_carry a (lognot b) K1

let trailing_zeros k =
  let rec go i =
    if i >= 16 then 16
    else if k.zeros land (1 lsl i) <> 0 then go (i + 1)
    else i
  in
  go 0

let mul a b =
  match (is_const a, is_const b) with
  | Some x, Some y -> const (x * y)
  | _ ->
      let tz = min 16 (trailing_zeros a + trailing_zeros b) in
      { zeros = ((1 lsl tz) - 1) land mask; ones = 0 }

let shl a amt =
  match is_const amt with
  | Some k when k land mask >= 16 -> const 0
  | Some k ->
      {
        zeros = ((a.zeros lsl k) lor ((1 lsl k) - 1)) land mask;
        ones = (a.ones lsl k) land mask;
      }
  | None -> top

let lshr a amt =
  match is_const amt with
  | Some k when k land mask >= 16 -> const 0
  | Some k ->
      let high = ((1 lsl k) - 1) lsl (16 - k) in
      { zeros = ((a.zeros lsr k) lor high) land mask; ones = a.ones lsr k }
  | None ->
      (* whatever the amount, leading known-zero bits stay zero *)
      let rec lead i =
        if i < 0 then 16
        else if a.zeros land (1 lsl i) <> 0 then lead (i - 1)
        else 15 - i
      in
      let l = lead 15 in
      { zeros = (((1 lsl l) - 1) lsl (16 - l)) land mask; ones = 0 }

let ashr a amt =
  match is_const amt with
  | Some k ->
      let k = min (k land mask) 16 in
      let sign = tri_of a 15 in
      if k = 0 then a
      else
        let high = mask land (((1 lsl k) - 1) lsl (max 0 (16 - k))) in
        let base =
          if k >= 16 then { zeros = 0; ones = 0 }
          else { zeros = a.zeros lsr k; ones = a.ones lsr k }
        in
        (match sign with
        | K0 -> { base with zeros = base.zeros lor high }
        | K1 -> { base with ones = base.ones lor high }
        | U -> base)
  | None -> top

(* --- conversions to/from intervals --- *)

(* a value with these known bits lies in [ones, ~zeros] (unsigned) *)
let unsigned_min k = k.ones
let unsigned_max k = mask land lnot k.zeros

(* common leading agreement of an unwrapped unsigned range becomes
   known bits *)
let of_unsigned_range lo hi =
  let lo = lo land mask and hi = hi land mask in
  if lo > hi then top
  else
    let diff = lo lxor hi in
    let rec width n = if diff lsr n = 0 then n else width (n + 1) in
    let w = width 0 in
    let keep = mask land lnot ((1 lsl w) - 1) in
    { zeros = keep land lnot lo; ones = keep land lo }

let pp ppf k =
  if known k = 0 then Format.pp_print_string ppf "⊤"
  else begin
    Format.pp_print_string ppf "0b";
    for i = 15 downto 0 do
      Format.pp_print_char ppf
        (match tri_of k i with K0 -> '0' | K1 -> '1' | U -> '.')
    done
  end
