module Cover = Apex_mapper.Cover
module Counter = Apex_telemetry.Counter

exception Does_not_fit of string

type t = {
  fabric : Fabric.t;
  loc : (int * int) array;
  input_locs : (string * (int * int)) list;
  output_locs : (string * (int * int)) list;
  wirelength : float;
}

(* A net is one driver and its sinks.  Nets are stored flat: net [k]'s
   movable pins (instance indices) are [pins.(start.(k))] to
   [pins.(start.(k + 1) - 1)], and its fixed pins (stream I/O
   coordinates) are folded into the box [fx0, fx1] x [fy0, fy1] (empty
   when the net has none: [far], [-far]). *)
type nets = {
  start : int array;
  pins : int array;
  fx0 : int array;
  fx1 : int array;
  fy0 : int array;
  fy1 : int array;
}

(* farther than any tile coordinate, close enough to 0 that [imin] and
   [imax] cannot overflow *)
let far = 1 lsl 40

(* branch-free min and max: the annealer's bounding-box updates are
   data-dependent, so compare-and-branch mispredicts *)
let imin a b =
  let d = a - b in
  b + (d land (d asr 62))

let imax a b =
  let d = a - b in
  a - (d land (d asr 62))

(* int lists as one array: list [k] is [flat.(start.(k))] to
   [flat.(start.(k + 1) - 1)]; returns [(start, flat)] *)
let flatten lists =
  let start = Array.make (Array.length lists + 1) 0 in
  Array.iteri (fun k l -> start.(k + 1) <- start.(k) + List.length l) lists;
  (start, Array.of_list (List.concat (Array.to_list lists)))

let input_names (m : Cover.t) =
  let names = ref [] in
  let add n = if not (List.mem n !names) then names := n :: !names in
  Array.iter
    (fun (inst : Cover.instance) ->
      List.iter
        (fun (_, drv) ->
          match (drv : Cover.driver) with
          | Cover.From_input n -> add n
          | Cover.From_pe _ -> ())
        inst.inputs)
    m.instances;
  List.iter
    (fun (_, drv) ->
      match (drv : Cover.driver) with
      | Cover.From_input n -> add n
      | Cover.From_pe _ -> ())
    m.outputs;
  List.rev !names

let build_nets (m : Cover.t) ~input_loc ~output_loc =
  (* per driver: the movable and the fixed points of its net, source
     included *)
  let tbl : (Cover.driver, int list * (int * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let add (drv : Cover.driver) (pins, fixed) =
    let pins0, fixed0 =
      match Hashtbl.find_opt tbl drv with
      | Some net -> net
      | None -> (
          match drv with
          | Cover.From_input n -> ([], [ input_loc n ])
          | Cover.From_pe (j, _) -> ([ j ], []))
    in
    Hashtbl.replace tbl drv (pins @ pins0, fixed @ fixed0)
  in
  Array.iter
    (fun (inst : Cover.instance) ->
      List.iter (fun (_, drv) -> add drv ([ inst.id ], [])) inst.inputs)
    m.instances;
  List.iter (fun (name, drv) -> add drv ([], [ output_loc name ])) m.outputs;
  let nets = Hashtbl.fold (fun _ net acc -> net :: acc) tbl [] |> Array.of_list in
  let start, pins = flatten (Array.map fst nets) in
  let box f init =
    Array.map (fun (_, fixed) -> List.fold_left f init fixed) nets
  in
  { start;
    pins;
    fx0 = box (fun a (x, _) -> min a x) far;
    fx1 = box (fun a (x, _) -> max a x) (-far);
    fy0 = box (fun a (_, y) -> min a y) far;
    fy1 = box (fun a (_, y) -> max a y) (-far) }

let n_nets nets = Array.length nets.fx0

(* half-perimeter of net [k] with instance [i] at [(xs.(i), ys.(i))];
   integer-valued, so sums of these are exact in any order *)
let net_hpwl nets xs ys k =
  let x0 = ref nets.fx0.(k) and x1 = ref nets.fx1.(k) in
  let y0 = ref nets.fy0.(k) and y1 = ref nets.fy1.(k) in
  for p = nets.start.(k) to nets.start.(k + 1) - 1 do
    let i = nets.pins.(p) in
    x0 := imin !x0 xs.(i);
    x1 := imax !x1 xs.(i);
    y0 := imin !y0 ys.(i);
    y1 := imax !y1 ys.(i)
  done;
  !x1 - !x0 + (!y1 - !y0)

(* the nets of each instance, each once, flattened *)
let nets_of nets n =
  let of_inst = Array.make n [] in
  for k = n_nets nets - 1 downto 0 do
    for p = nets.start.(k) to nets.start.(k + 1) - 1 do
      let i = nets.pins.(p) in
      match of_inst.(i) with
      | k' :: _ when k' = k -> ()
      | l -> of_inst.(i) <- k :: l
    done
  done;
  flatten of_inst

let place ?(seed = 1) ?(effort = 1) fabric (m : Cover.t) =
  let n = Array.length m.instances in
  let pe_tiles = Array.of_list (Fabric.pe_positions fabric) in
  let n_tiles = Array.length pe_tiles in
  if n > n_tiles then
    raise
      (Does_not_fit (Printf.sprintf "%d instances > %d PE tiles" n n_tiles));
  let inputs = input_names m in
  let input_locs =
    List.mapi (fun i name -> (name, Fabric.io_west fabric i)) inputs
  in
  let output_locs =
    List.mapi (fun i (name, _) -> (name, Fabric.io_east fabric i)) m.outputs
  in
  let input_loc name = List.assoc name input_locs in
  let output_loc name = List.assoc name output_locs in
  let nets = build_nets m ~input_loc ~output_loc in
  let tx = Array.map fst pe_tiles and ty = Array.map snd pe_tiles in
  (* initial placement: row-major.  [slot.(i)] is instance [i]'s index
     into [pe_tiles], [(xs.(i), ys.(i))] its tile; [occupant.(s)] is the
     instance on slot [s], or -1 *)
  let slot = Array.init n Fun.id in
  let xs = Array.sub tx 0 n and ys = Array.sub ty 0 n in
  let put i s =
    xs.(i) <- tx.(s);
    ys.(i) <- ty.(s)
  in
  let occupant = Array.init n_tiles (fun s -> if s < n then s else -1) in
  (* [hp.(k)]: net [k]'s HPWL at the current placement *)
  let hp = Array.init (n_nets nets) (net_hpwl nets xs ys) in
  let total () = Array.fold_left ( + ) 0 hp in
  let moves = ref 0 and accepted = ref 0 in
  if effort > 0 && n > 1 then begin
    let of_start, of_net = nets_of nets n in
    let st = Random.State.make [| seed |] in
    let moves_per_t = 20 * n * effort in
    let t = ref (Float.max 1.0 (float_of_int (total ()) *. 0.05)) in
    (* the nets touching a move, each once: [touched.(0 .. !n_touched-1)]
       with their HPWL after the move in [fresh]; a net is added only if
       its stamp is not the current epoch *)
    let touched = Array.make (n_nets nets) 0 in
    let fresh = Array.make (n_nets nets) 0 in
    let n_touched = ref 0 in
    let stamp = Array.make (n_nets nets) 0 in
    let epoch = ref 0 in
    let touch i =
      for p = of_start.(i) to of_start.(i + 1) - 1 do
        let k = of_net.(p) in
        if stamp.(k) <> !epoch then begin
          stamp.(k) <- !epoch;
          touched.(!n_touched) <- k;
          incr n_touched
        end
      done
    in
    let accept d =
      d <= 0 || Random.State.float st 1.0 < exp (-.float_of_int d /. !t)
    in
    while !t > 0.05 do
      moves := !moves + moves_per_t;
      for _ = 1 to moves_per_t do
        let i = Random.State.int st n in
        let target = Random.State.int st n_tiles in
        let old_i = slot.(i) in
        if target <> old_i then begin
          (* move i to [target], swapping with its occupant [j] if any;
             the cost change is the touched nets' fresh HPWL minus
             their cached HPWL *)
          let j = occupant.(target) in
          incr epoch;
          n_touched := 0;
          touch i;
          if j >= 0 then touch j;
          put i target;
          if j >= 0 then put j old_i;
          let d = ref 0 in
          for q = 0 to !n_touched - 1 do
            let k = touched.(q) in
            let h = net_hpwl nets xs ys k in
            fresh.(q) <- h;
            d := !d + (h - hp.(k))
          done;
          if accept !d then begin
            incr accepted;
            for q = 0 to !n_touched - 1 do
              hp.(touched.(q)) <- fresh.(q)
            done;
            slot.(i) <- target;
            if j >= 0 then slot.(j) <- old_i;
            occupant.(target) <- i;
            occupant.(old_i) <- j
          end
          else begin
            put i old_i;
            if j >= 0 then put j target
          end
        end
      done;
      t := !t *. 0.8
    done
  end;
  Counter.add "cgra.place_moves" !moves;
  Counter.add "cgra.place_accepted" !accepted;
  { fabric;
    loc = Array.map (fun s -> pe_tiles.(s)) slot;
    input_locs;
    output_locs;
    wirelength = float_of_int (total ()) }

let hpwl p (m : Cover.t) =
  let input_loc name = List.assoc name p.input_locs in
  let output_loc name = List.assoc name p.output_locs in
  let nets = build_nets m ~input_loc ~output_loc in
  let xs = Array.map fst p.loc and ys = Array.map snd p.loc in
  Array.init (n_nets nets) (net_hpwl nets xs ys)
  |> Array.fold_left ( + ) 0 |> float_of_int
