module Op = Apex_dfg.Op
module Cover = Apex_mapper.Cover
module Counter = Apex_telemetry.Counter

type hop = (int * int) * (int * int)

type net = {
  name : string;
  width : Op.width;
  source : int * int;
  sinks : (int * int) list;
  tree : hop list;
  tracks : (hop * int) list;
  (** concrete track index used on each hop (detailed routing) *)
}

type t = {
  nets : net list;
  word_hops : int;
  bit_hops : int;
  overuse : int;
  iterations : int;
}

(* net extraction: one net per (driver, width) with its sink tiles *)
let extract_nets (p : Place.t) (m : Cover.t) =
  let tbl : (string, Op.width * (int * int) * (int * int) list) Hashtbl.t =
    Hashtbl.create 64
  in
  (* all routed nets are treated as 16-bit; the fabric's 1-bit tracks
     are plentiful and our applications route words between PEs *)
  let src_of (drv : Cover.driver) =
    match drv with
    | Cover.From_input n -> List.assoc n p.input_locs
    | Cover.From_pe (j, _) -> p.loc.(j)
  in
  let key (drv : Cover.driver) =
    match drv with
    | Cover.From_input n -> "i:" ^ n
    | Cover.From_pe (j, pos) -> Printf.sprintf "p:%d:%d" j pos
  in
  let add drv sink =
    let k = key drv in
    match Hashtbl.find_opt tbl k with
    | Some (w, src, sinks) ->
        if not (List.mem sink sinks) then
          Hashtbl.replace tbl k (w, src, sink :: sinks)
    | None -> Hashtbl.replace tbl k (Op.Word, src_of drv, [ sink ])
  in
  Array.iteri
    (fun idx (inst : Cover.instance) ->
      List.iter (fun (_, drv) -> add drv p.loc.(idx)) inst.inputs)
    m.instances;
  List.iter
    (fun (name, drv) -> add drv (List.assoc name p.output_locs))
    m.outputs;
  Hashtbl.fold
    (fun name (w, src, sinks) acc -> (name, w, src, sinks) :: acc)
    tbl []
  |> List.sort compare

(* The routing graph: the fabric grid plus the IO columns x = -1 and
   x = width, all over rows 0 <= y < height.  Node (x, y) is
   [(x + 1) * height + y], so node order is (x, y) order.  Edge
   [node * 4 + dir] leaves [node] towards +x, -x, +y, -y for
   dir = 0 .. 3, the order the search relaxes them in. *)
let node h (x, y) = ((x + 1) * h) + y
let coords h v = ((v / h) - 1, v mod h)

(* Search state of one [route] call, reused by every Dijkstra run:
   [dist.(v)] and [prev.(v)] (the edge into [v] on its best path, -1 at
   a source) are valid only when [seen.(v) = epoch]; [hd]/[hn] is a
   binary min-heap of (distance, node) pairs *)
type search = {
  width : int;
  height : int;
  usage : int array;  (** nets on each edge this round *)
  history : float array;  (** accumulated congestion cost per edge *)
  capacity : int;
  dist : float array;
  prev : int array;
  seen : int array;
  mutable epoch : int;
  mutable hd : float array;
  mutable hn : int array;
  mutable size : int;
}

let new_search (fabric : Fabric.t) =
  let width = fabric.width and height = fabric.height in
  let n = (width + 2) * height in
  { width;
    height;
    usage = Array.make (4 * n) 0;
    history = Array.make (4 * n) 0.0;
    capacity = fabric.params.word_tracks;
    dist = Array.make n 0.0;
    prev = Array.make n (-1);
    seen = Array.make n 0;
    epoch = 0;
    hd = Array.make 64 0.0;
    hn = Array.make 64 0;
    size = 0 }

(* the node edge [e] leads to, or -1 when it would leave the graph *)
let head s e =
  let v = e lsr 2 and h = s.height in
  let x = (v / h) - 1 and y = v mod h in
  match e land 3 with
  | 0 -> if x < s.width then v + h else -1
  | 1 -> if x > -1 then v - h else -1
  | 2 -> if y < h - 1 then v + 1 else -1
  | _ -> if y > 0 then v - 1 else -1

let hop_of s e = (coords s.height (e lsr 2), coords s.height (head s e))

(* The heap orders entries on (distance, node), i.e. (distance, x, y)
   lexicographically.  No two live entries are equal (a node is pushed
   again only at a strictly smaller distance), so the pop sequence is
   fully determined, and with it which of several equal-cost paths
   the search settles on. *)
let lt (d : float) (v : int) d' v' = d < d' || (d = d' && v < v')

let push s d v =
  if s.size = Array.length s.hd then begin
    s.hd <- Array.append s.hd (Array.make s.size 0.0);
    s.hn <- Array.append s.hn (Array.make s.size 0)
  end;
  let i = ref s.size in
  s.size <- s.size + 1;
  while !i > 0 && lt d v s.hd.((!i - 1) / 2) s.hn.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    s.hd.(!i) <- s.hd.(p);
    s.hn.(!i) <- s.hn.(p);
    i := p
  done;
  s.hd.(!i) <- d;
  s.hn.(!i) <- v

(* drop the minimum, [(hd.(0), hn.(0))], and sift the last entry down *)
let pop s =
  let n = s.size - 1 in
  s.size <- n;
  let d = s.hd.(n) and v = s.hn.(n) in
  let i = ref 0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c = if r < n && lt s.hd.(r) s.hn.(r) s.hd.(l) s.hn.(l) then r else l in
    if c < n && lt s.hd.(c) s.hn.(c) d v then begin
      s.hd.(!i) <- s.hd.(c);
      s.hn.(!i) <- s.hn.(c);
      i := c
    end
    else sinking := false
  done;
  s.hd.(!i) <- d;
  s.hn.(!i) <- v

(* Dijkstra from a set of tree nodes to one target over congestion-aware
   edge costs; the path's edges from the tree to [target] *)
let shortest s ~sources ~target =
  s.epoch <- s.epoch + 1;
  s.size <- 0;
  List.iter
    (fun v ->
      s.seen.(v) <- s.epoch;
      s.dist.(v) <- 0.0;
      s.prev.(v) <- -1;
      push s 0.0 v)
    sources;
  let found = ref false in
  while (not !found) && s.size > 0 do
    let d = s.hd.(0) and u = s.hn.(0) in
    pop s;
    if d <= s.dist.(u) +. 1e-9 then begin
      if u = target then found := true
      else
        for e = u * 4 to (u * 4) + 3 do
          let v = head s e in
          if v >= 0 then begin
            let n = s.usage.(e) in
            let over =
              if n >= s.capacity then 4.0 *. float_of_int (n - s.capacity + 1)
              else 0.0
            in
            let c = d +. (1.0 +. s.history.(e) +. over) in
            if s.seen.(v) <> s.epoch || c < s.dist.(v) -. 1e-12 then begin
              s.seen.(v) <- s.epoch;
              s.dist.(v) <- c;
              s.prev.(v) <- e;
              push s c v
            end
          end
        done
    end
  done;
  if not !found then None
  else begin
    let rec walk v acc =
      let e = s.prev.(v) in
      if e < 0 then acc else walk (e lsr 2) (e :: acc)
    in
    Some (walk target [])
  end

let route_net s ~source ~sinks =
  (* grow a tree: route each sink from the current tree *)
  let tree_nodes = ref [ source ] in
  let tree_edges = ref [] in
  let ok = ref true in
  List.iter
    (fun sink ->
      if !ok && not (List.mem sink !tree_nodes) then
        match shortest s ~sources:!tree_nodes ~target:sink with
        | None -> ok := false
        | Some path ->
            List.iter
              (fun e ->
                let b = head s e in
                if not (List.mem e !tree_edges) then tree_edges := e :: !tree_edges;
                if not (List.mem b !tree_nodes) then tree_nodes := b :: !tree_nodes)
              path)
    sinks;
  if !ok then Some (List.rev !tree_edges) else None

let route (p : Place.t) (m : Cover.t) =
  let s = new_search p.fabric in
  let h = s.height in
  (* sinks nearest the source first *)
  let nets =
    List.map
      (fun (name, width, source, sinks) ->
        let d (x, y) = abs (x - fst source) + abs (y - snd source) in
        let order = List.sort (fun a b -> compare (d a) (d b)) sinks in
        (name, width, source, sinks, List.map (node h) order))
      (extract_nets p m)
  in
  let n_edges = Array.length s.usage in
  let routed = ref [] in
  let iterations = ref 0 in
  let legal = ref false in
  while (not !legal) && !iterations < 30 do
    incr iterations;
    Array.fill s.usage 0 n_edges 0;
    routed := [];
    List.iter
      (fun ((name, _, source, _, sinks) as net) ->
        match route_net s ~source:(node h source) ~sinks with
        | None -> failwith ("Route: net unroutable: " ^ name)
        | Some tree ->
            List.iter (fun e -> s.usage.(e) <- s.usage.(e) + 1) tree;
            routed := (net, tree) :: !routed)
      nets;
    (* congestion check *)
    let over = ref 0 in
    for e = 0 to n_edges - 1 do
      if s.usage.(e) > s.capacity then begin
        incr over;
        s.history.(e) <- s.history.(e) +. 1.0
      end
    done;
    if !over = 0 then legal := true
  done;
  (* detailed routing: give each net a concrete track index per hop
     (first free track on that boundary, in reverse net order) *)
  let track_next = Array.make n_edges 0 in
  let nets =
    List.rev_map
      (fun ((name, width, source, sinks, _), edges) ->
        let tree = List.map (hop_of s) edges in
        let tracks =
          List.map2
            (fun e hop ->
              let t = track_next.(e) in
              track_next.(e) <- t + 1;
              (hop, t))
            edges tree
        in
        { name; width; source; sinks; tree; tracks })
      !routed
  in
  let word_hops, bit_hops =
    List.fold_left
      (fun (w, b) (n : net) ->
        match n.width with
        | Op.Word -> (w + List.length n.tree, b)
        | Op.Bit -> (w, b + List.length n.tree))
      (0, 0) nets
  in
  let overuse =
    Array.fold_left (fun c u -> if u > s.capacity then c + 1 else c) 0 s.usage
  in
  Counter.add "cgra.route_iterations" !iterations;
  Counter.add "cgra.route_word_hops" word_hops;
  { nets; word_hops; bit_hops; overuse; iterations = !iterations }

let tiles_touched t =
  t.nets
  |> List.concat_map (fun (n : net) ->
         List.concat_map (fun (a, b) -> [ a; b ]) n.tree)
  |> List.sort_uniq compare

let routing_only_tiles t (p : Place.t) =
  let f = p.fabric in
  (* per in-fabric tile: 0 untouched, 1 hosts an instance, 2 counted *)
  let mark = Array.make (f.width * f.height) 0 in
  Array.iter (fun (x, y) -> mark.((y * f.width) + x) <- 1) p.loc;
  let count = ref 0 in
  let visit (x, y) =
    if Fabric.in_bounds f ~x ~y && mark.((y * f.width) + x) = 0 then begin
      mark.((y * f.width) + x) <- 2;
      incr count
    end
  in
  List.iter
    (fun (n : net) ->
      List.iter
        (fun (a, b) ->
          visit a;
          visit b)
        n.tree)
    t.nets;
  !count
