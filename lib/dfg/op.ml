type width = Word | Bit

type t =
  | Add | Sub | Mul
  | Shl | Lshr | Ashr
  | And | Or | Xor | Not
  | Abs | Smax | Smin | Umax | Umin
  | Eq | Neq | Slt | Sle | Ult | Ule
  | Mux
  | Lut of int
  | Const of int
  | Bit_const of bool
  | Input of string
  | Bit_input of string
  | Output of string
  | Bit_output of string
  | Reg
  | Reg_file of int

let arity = function
  | Add | Sub | Mul | Shl | Lshr | Ashr
  | And | Or | Xor
  | Smax | Smin | Umax | Umin
  | Eq | Neq | Slt | Sle | Ult | Ule -> 2
  | Not | Abs -> 1
  | Mux -> 3
  | Lut _ -> 3
  | Const _ | Bit_const _ | Input _ | Bit_input _ -> 0
  | Output _ | Bit_output _ -> 1
  | Reg -> 1
  | Reg_file _ -> 1

let input_widths = function
  | Add | Sub | Mul | Shl | Lshr | Ashr
  | And | Or | Xor
  | Smax | Smin | Umax | Umin
  | Eq | Neq | Slt | Sle | Ult | Ule -> [| Word; Word |]
  | Not | Abs -> [| Word |]
  | Mux -> [| Bit; Word; Word |]
  | Lut _ -> [| Bit; Bit; Bit |]
  | Const _ | Bit_const _ | Input _ | Bit_input _ -> [||]
  | Output _ -> [| Word |]
  | Bit_output _ -> [| Bit |]
  | Reg -> [| Word |]
  | Reg_file _ -> [| Word |]

let result_width = function
  | Eq | Neq | Slt | Sle | Ult | Ule | Lut _ | Bit_const _
  | Bit_input _ | Bit_output _ -> Bit
  | Add | Sub | Mul | Shl | Lshr | Ashr
  | And | Or | Xor | Not | Abs
  | Smax | Smin | Umax | Umin | Mux
  | Const _ | Input _ | Output _ | Reg | Reg_file _ -> Word

let is_commutative = function
  | Add | Mul | And | Or | Xor
  | Smax | Smin | Umax | Umin | Eq | Neq -> true
  | Sub | Shl | Lshr | Ashr | Not | Abs
  | Slt | Sle | Ult | Ule | Mux | Lut _
  | Const _ | Bit_const _ | Input _ | Bit_input _
  | Output _ | Bit_output _ | Reg | Reg_file _ -> false

let is_compute = function
  | Add | Sub | Mul | Shl | Lshr | Ashr
  | And | Or | Xor | Not | Abs
  | Smax | Smin | Umax | Umin
  | Eq | Neq | Slt | Sle | Ult | Ule
  | Mux | Lut _ -> true
  | Const _ | Bit_const _ | Input _ | Bit_input _
  | Output _ | Bit_output _ | Reg | Reg_file _ -> false

let is_io = function
  | Input _ | Bit_input _ | Output _ | Bit_output _ -> true
  | _ -> false

let is_const = function Const _ | Bit_const _ -> true | _ -> false

(* The hardware-block classes below drive the merging rules: an ALU slice
   implements add/sub/min/max/abs, a comparator implements the predicate
   ops (it is an ALU subtract plus flag logic, but it produces a 1-bit
   result so it occupies a distinct block), a barrel shifter implements
   the three shifts, and bitwise logic ops share one logic unit. *)
let kind = function
  | Add | Sub | Abs | Smax | Smin | Umax | Umin -> "alu"
  | Mul -> "mul"
  | Shl | Lshr | Ashr -> "shift"
  | And | Or | Xor | Not -> "logic"
  | Eq | Neq | Slt | Sle | Ult | Ule -> "cmp"
  | Mux -> "mux"
  | Lut _ -> "lut"
  | Const _ -> "const"
  | Bit_const _ -> "bitconst"
  | Input _ -> "input"
  | Bit_input _ -> "bitinput"
  | Output _ -> "output"
  | Bit_output _ -> "bitoutput"
  | Reg -> "reg"
  | Reg_file _ -> "regfile"

let mnemonic = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul"
  | Shl -> "shl" | Lshr -> "lshr" | Ashr -> "ashr"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Not -> "not"
  | Abs -> "abs"
  | Smax -> "smax" | Smin -> "smin" | Umax -> "umax" | Umin -> "umin"
  | Eq -> "eq" | Neq -> "neq"
  | Slt -> "slt" | Sle -> "sle" | Ult -> "ult" | Ule -> "ule"
  | Mux -> "mux"
  | Lut tt -> Printf.sprintf "lut%02x" (tt land 0xff)
  | Const v -> "const" ^ string_of_int (v land 0xffff)
  | Bit_const b -> if b then "bconst1" else "bconst0"
  | Input s -> "in:" ^ s
  | Bit_input s -> "bin:" ^ s
  | Output s -> "out:" ^ s
  | Bit_output s -> "bout:" ^ s
  | Reg -> "reg"
  | Reg_file d -> Printf.sprintf "rf%d" d

let pp ppf op = Format.pp_print_string ppf (mnemonic op)

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let all_compute =
  [ Add; Sub; Mul; Shl; Lshr; Ashr; And; Or; Xor; Not; Abs;
    Smax; Smin; Umax; Umin; Eq; Neq; Slt; Sle; Ult; Ule; Mux; Lut 0xE8 ]
