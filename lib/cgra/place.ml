module Cover = Apex_mapper.Cover

exception Does_not_fit of string

type t = {
  fabric : Fabric.t;
  loc : (int * int) array;
  input_locs : (string * (int * int)) list;
  output_locs : (string * (int * int)) list;
  wirelength : float;
}

(* a net: one driver and its sink points; points are either movable
   instances or fixed coordinates *)
type point = Inst of int | Fixed of int * int

type net = point array

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
  (* nets keyed by driver *)
  let tbl : (string, point list) Hashtbl.t = Hashtbl.create 64 in
  let key (drv : Cover.driver) =
    match drv with
    | Cover.From_input n -> "i:" ^ n
    | Cover.From_pe (j, pos) -> Printf.sprintf "p:%d:%d" j pos
  in
  let src (drv : Cover.driver) =
    match drv with
    | Cover.From_input n ->
        let x, y = input_loc n in
        Fixed (x, y)
    | Cover.From_pe (j, _) -> Inst j
  in
  let add drv sink =
    let k = key drv in
    let prev =
      match Hashtbl.find_opt tbl k with
      | Some l -> l
      | None -> [ src drv ]
    in
    Hashtbl.replace tbl k (sink :: prev)
  in
  Array.iter
    (fun (inst : Cover.instance) ->
      List.iter (fun (_, drv) -> add drv (Inst inst.id)) inst.inputs)
    m.instances;
  List.iter
    (fun (name, drv) ->
      let x, y = output_loc name in
      add drv (Fixed (x, y)))
    m.outputs;
  Hashtbl.fold (fun _ points acc -> Array.of_list points :: acc) tbl []
  |> List.sort compare |> Array.of_list

(* half-perimeter of one net; integer-valued, so sums of these are
   exact in any order *)
let net_hpwl loc (net : net) =
  let minx = ref max_int and maxx = ref min_int in
  let miny = ref max_int and maxy = ref min_int in
  for k = 0 to Array.length net - 1 do
    let x = match net.(k) with Inst i -> fst loc.(i) | Fixed (x, _) -> x in
    let y = match net.(k) with Inst i -> snd loc.(i) | Fixed (_, y) -> y in
    if x < !minx then minx := x;
    if x > !maxx then maxx := x;
    if y < !miny then miny := y;
    if y > !maxy then maxy := y
  done;
  !maxx - !minx + (!maxy - !miny)

let total_cost loc nets =
  float_of_int (Array.fold_left (fun acc net -> acc + net_hpwl loc net) 0 nets)

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
  (* initial placement: row-major.  [slot.(i)] is instance [i]'s index
     into [pe_tiles]; [occupant.(s)] is the instance on slot [s], or -1 *)
  let loc = Array.init n (fun i -> pe_tiles.(i)) in
  let slot = Array.init n Fun.id in
  let occupant = Array.init n_tiles (fun s -> if s < n then s else -1) in
  let nets_of = Array.make n [] in
  Array.iteri
    (fun ni net ->
      Array.iter
        (function
          | Inst i -> if not (List.mem ni nets_of.(i)) then nets_of.(i) <- ni :: nets_of.(i)
          | Fixed _ -> ())
        net)
    nets;
  if effort > 0 && n > 1 then begin
    let st = Random.State.make [| seed |] in
    let moves_per_t = 20 * n * effort in
    let t = ref (Float.max 1.0 (total_cost loc nets *. 0.05)) in
    (* HPWL of the nets touching the moved instances, each net counted
       once: a net is summed only if its stamp is not the current one *)
    let stamp = Array.make (Array.length nets) 0 in
    let epoch = ref 0 in
    let rec sum_nets acc = function
      | [] -> acc
      | ni :: rest ->
          if stamp.(ni) = !epoch then sum_nets acc rest
          else begin
            stamp.(ni) <- !epoch;
            sum_nets (acc + net_hpwl loc nets.(ni)) rest
          end
    in
    (* the nets touching instance [i] and, when [j >= 0], instance [j] *)
    let cost_of i j =
      incr epoch;
      let c = sum_nets 0 nets_of.(i) in
      if j >= 0 then sum_nets c nets_of.(j) else c
    in
    let accept d =
      d <= 0 || Random.State.float st 1.0 < exp (-.float_of_int d /. !t)
    in
    while !t > 0.05 do
      for _ = 1 to moves_per_t do
        let i = Random.State.int st n in
        let target = Random.State.int st n_tiles in
        let old_i = slot.(i) in
        if target <> old_i then begin
          (* move i to [target], swapping with its occupant [j] if any *)
          let j = occupant.(target) in
          let before = cost_of i j in
          loc.(i) <- pe_tiles.(target);
          if j >= 0 then loc.(j) <- pe_tiles.(old_i);
          if accept (cost_of i j - before) then begin
            slot.(i) <- target;
            if j >= 0 then slot.(j) <- old_i;
            occupant.(target) <- i;
            occupant.(old_i) <- j
          end
          else begin
            loc.(i) <- pe_tiles.(old_i);
            if j >= 0 then loc.(j) <- pe_tiles.(target)
          end
        end
      done;
      t := !t *. 0.8
    done
  end;
  { fabric;
    loc;
    input_locs;
    output_locs;
    wirelength = total_cost loc nets }

let hpwl p (m : Cover.t) =
  let input_loc name = List.assoc name p.input_locs in
  let output_loc name = List.assoc name p.output_locs in
  let nets = build_nets m ~input_loc ~output_loc in
  total_cost p.loc nets
