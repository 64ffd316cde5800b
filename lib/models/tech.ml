module Op = Apex_dfg.Op

type cost = { area : float; energy : float; delay : float }

let c area energy delay = { area; energy; delay }

(* Dedicated functional units.  Areas are in um^2 for a ~16 nm class
   process, energies in fJ per operation, delays in ps.  The absolute
   scale is calibrated so that the structural baseline PE (see
   Apex_peak.Library.baseline) synthesizes to ~988.8 um^2 (Table 2). *)
(* one write port, one read port, [depth] 16-bit words *)
let register_file_area depth =
  c (60.0 +. (34.0 *. float_of_int depth)) (4.5 +. (0.6 *. float_of_int depth)) 120.0

let op_cost (op : Op.t) =
  match op with
  | Op.Add -> c 62.0 9.0 260.0
  | Op.Sub -> c 68.0 9.5 270.0
  | Op.Mul -> c 182.0 95.0 640.0
  | Op.Shl -> c 78.0 9.0 210.0
  | Op.Lshr -> c 78.0 9.0 210.0
  | Op.Ashr -> c 84.0 9.5 220.0
  | Op.And | Op.Or | Op.Xor -> c 14.0 1.6 50.0
  | Op.Not -> c 7.0 0.8 30.0
  | Op.Abs -> c 46.0 6.0 230.0
  | Op.Smax | Op.Smin -> c 74.0 8.5 300.0
  | Op.Umax | Op.Umin -> c 66.0 8.0 290.0
  | Op.Eq | Op.Neq -> c 22.0 2.5 160.0
  | Op.Slt | Op.Sle -> c 34.0 3.5 240.0
  | Op.Ult | Op.Ule -> c 30.0 3.2 230.0
  | Op.Mux -> c 17.0 1.2 45.0
  | Op.Lut _ -> c 6.5 0.4 55.0
  | Op.Const _ -> c 42.0 0.6 0.0
  | Op.Bit_const _ -> c 3.5 0.05 0.0
  | Op.Input _ | Op.Bit_input _ | Op.Output _ | Op.Bit_output _ ->
      c 0.0 0.0 0.0
  | Op.Reg -> c 40.0 3.8 35.0
  | Op.Reg_file d -> register_file_area d

(* Shared blocks: the base block prices the first (most expensive)
   operation of the kind; further operations of the same kind reuse the
   datapath and add only a small slice (extra decode + result gating). *)
let kind_cost = function
  | "alu" -> c 66.0 9.0 300.0
  | "mul" -> c 182.0 95.0 640.0
  | "shift" -> c 86.0 9.5 220.0
  | "logic" -> c 15.0 1.7 55.0
  | "cmp" -> c 34.0 3.5 240.0
  | "mux" -> c 17.0 1.2 45.0
  | "lut" -> c 6.5 0.4 55.0
  | k -> invalid_arg ("Tech.kind_cost: not a compute kind: " ^ k)

let op_slice (op : Op.t) =
  match op with
  | Op.Add -> 4.0
  | Op.Sub -> 7.0
  | Op.Mul -> 0.0
  | Op.Shl | Op.Lshr -> 6.0
  | Op.Ashr -> 9.0
  | Op.And | Op.Or | Op.Xor -> 9.0
  | Op.Not -> 4.0
  | Op.Abs -> 16.0
  | Op.Smax | Op.Smin -> 18.0
  | Op.Umax | Op.Umin -> 14.0
  | Op.Eq | Op.Neq -> 6.0
  | Op.Slt | Op.Sle | Op.Ult | Op.Ule -> 8.0
  | Op.Mux -> 0.0
  | Op.Lut _ -> 0.0
  | _ -> 0.0

(* --- width-aware scaling --- *)

let word_width = 16

(* Scale factor for a word unit whose operands are proven narrower than
   the native 16 bits.  Exactly 1.0 at full width, so every calibrated
   absolute number above is untouched unless the width analysis proved
   a reduction.  Multipliers shrink quadratically (the partial-product
   array is w*w); ripple/mux/register structures shrink linearly; "lut"
   is already bit-level and never scales. *)
let width_factor ~kind ~width =
  let w = max 1 (min word_width width) in
  let r = float_of_int w /. float_of_int word_width in
  match kind with
  | "mul" -> r *. r
  (* bit-result units: a LUT is already bit-level, and a comparator's
     datapath is sized by its word inputs, not its 1-bit result — the
     node's proven (output) width says nothing about either *)
  | "lut" | "cmp" -> 1.0
  | _ -> r

let word_mux_cost n =
  if n <= 1 then c 0.0 0.0 0.0
  else
    let stages = ceil (log (float_of_int n) /. log 2.0) in
    c (17.0 *. float_of_int (n - 1)) (1.2 *. float_of_int (n - 1)) (45.0 *. stages)

let const_register_cost = c 42.0 0.6 0.0

let pipeline_register_cost = c 40.0 3.8 35.0

let register_file_cost ~depth = register_file_area depth

let config_overhead ~n_config_bits =
  let b = float_of_int n_config_bits in
  c (3.2 *. b) (0.02 *. b) 0.0

(* residual activity of a clock-gated idle FU: the gating cell and
   leakage-equivalent switching, an order of magnitude below the
   ungated idle_activity the PE cost model charges by default *)
let gated_idle_activity = 0.02

let clock_period_ps = 1100.0

(* driving one 16-bit inter-tile routing segment (wire capacitance
   dominates the switch-box mux) *)
let track_wire_energy = 45.0

(* Memory tile: two 2KB SRAM banks plus address generators and
   controllers (Section 5).  SRAM macros dominate: ~0.45 um^2/bit in
   this technology class plus periphery. *)
let mem_tile_cost =
  c 16500.0 38.0 800.0

(* Stream I/O tile: pad interface, small FIFO and valid/ready logic. *)
let io_tile_cost = c 900.0 6.0 150.0
