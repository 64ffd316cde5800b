module Interconnect = Apex_models.Interconnect

type tile_kind = Pe_tile | Mem_tile

type t = { width : int; height : int; params : Interconnect.params }

let create ?(width = 32) ?(height = 16) ?(params = Interconnect.default) () =
  if width <= 0 || height <= 0 then invalid_arg "Fabric.create: empty grid";
  { width; height; params }

(* every 4th column holds MEM tiles *)
let kind _ ~x ~y:_ = if (x + 1) mod 4 = 0 then Mem_tile else Pe_tile

let positions f want =
  let acc = ref [] in
  for y = 0 to f.height - 1 do
    for x = 0 to f.width - 1 do
      if kind f ~x ~y = want then acc := (x, y) :: !acc
    done
  done;
  List.rev !acc

let pe_positions f = positions f Pe_tile
let mem_positions f = positions f Mem_tile

let n_pe_tiles f = List.length (pe_positions f)
let n_mem_tiles f = List.length (mem_positions f)

let in_bounds f ~x ~y = x >= 0 && x < f.width && y >= 0 && y < f.height

let io_west f i = (-1, i mod f.height)
let io_east f i = (f.width, i mod f.height)
