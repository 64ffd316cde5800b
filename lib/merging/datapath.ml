module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Pattern = Apex_mining.Pattern
module Tech = Apex_models.Tech
module Width = Apex_analysis.Width

type unit_kind = Fu of string | Creg | In_port | Bit_in_port

type node = { id : int; kind : unit_kind; ops : Op.t list; width : int }

(* the full hardware width a unit has when no analysis narrowed it *)
let natural_width = function
  | Fu ("cmp" | "lut") | Bit_in_port -> 1
  | Fu _ | Creg | In_port -> 16

type edge = { src : int; dst : int; port : int }

type config = {
  label : string;
  fu_ops : (int * Op.t) list;
  routes : ((int * int) * int) list;
  consts : (int * int) list;
  inputs : (int * int) list;
  outputs : (int * int) list;
}

type t = { nodes : node array; edges : edge list; configs : config list }

let result_width (n : node) =
  match n.kind with
  | Fu ("cmp" | "lut") -> Op.Bit
  | Fu _ -> Op.Word
  | Creg | In_port -> Op.Word
  | Bit_in_port -> Op.Bit

let of_pattern p =
  let pg = Pattern.graph p in
  (* Width inference on the standalone pattern graph: its inputs are
     unconstrained, so a width proven here is context-free — valid for
     every embedding of the pattern and every configuration realizing
     it.  Every narrowing inside [w] was SMT-discharged (or reverted)
     by [Width.infer]'s ladder. *)
  let w = Width.infer pg in
  let pw (n : G.node) nat = min nat w.Width.widths.(n.G.id) in
  let nodes = ref [] in
  let edges = ref [] in
  let remap = Hashtbl.create 16 in
  let next = ref 0 in
  let fresh kind ops width =
    let id = !next in
    incr next;
    nodes := { id; kind; ops; width } :: !nodes;
    id
  in
  let fu_ops = ref [] and routes = ref [] and consts = ref [] in
  let inputs = ref [] and outputs = ref [] in
  let n_out = ref 0 in
  Array.iter
    (fun (n : G.node) ->
      match n.op with
      | Op.Input _ ->
          let id = fresh In_port [] (pw n 16) in
          Hashtbl.replace remap n.id id;
          inputs := (n.id, id) :: !inputs
      | Op.Bit_input _ ->
          let id = fresh Bit_in_port [] 1 in
          Hashtbl.replace remap n.id id;
          inputs := (n.id, id) :: !inputs
      | Op.Const v ->
          let id = fresh Creg [ Op.Const v ] (pw n 16) in
          Hashtbl.replace remap n.id id;
          consts := (id, v land 0xffff) :: !consts
      | Op.Bit_const b ->
          let id = fresh Creg [ Op.Bit_const b ] 1 in
          Hashtbl.replace remap n.id id;
          consts := (id, if b then 1 else 0) :: !consts
      | Op.Output _ | Op.Bit_output _ ->
          let src = Hashtbl.find remap n.args.(0) in
          outputs := (!n_out, src) :: !outputs;
          incr n_out
      | op when Op.is_compute op ->
          let kind = Fu (Op.kind op) in
          let id = fresh kind [ op ] (pw n (natural_width kind)) in
          Hashtbl.replace remap n.id id;
          fu_ops := (id, op) :: !fu_ops;
          Array.iteri
            (fun port a ->
              let src = Hashtbl.find remap a in
              edges := { src; dst = id; port } :: !edges;
              routes := ((id, port), src) :: !routes)
            n.args
      | op ->
          invalid_arg ("Datapath.of_pattern: unsupported op " ^ Op.mnemonic op))
    (G.nodes pg);
  let cfg =
    { label = Pattern.code p;
      fu_ops = List.rev !fu_ops;
      routes = List.rev !routes;
      consts = List.rev !consts;
      inputs = List.rev !inputs;
      outputs = List.rev !outputs }
  in
  { nodes = Array.of_list (List.rev !nodes);
    edges = List.rev !edges;
    configs = [ cfg ] }

let sources dp ~dst ~port =
  List.filter_map
    (fun e -> if e.dst = dst && e.port = port then Some e.src else None)
    dp.edges
  |> List.sort_uniq compare

let is_acyclic dp =
  let n = Array.length dp.nodes in
  let indeg = Array.make n 0 in
  let out = Array.make n [] in
  let edges = List.sort_uniq compare (List.map (fun e -> (e.src, e.dst)) dp.edges) in
  List.iter
    (fun (s, d) ->
      indeg.(d) <- indeg.(d) + 1;
      out.(s) <- d :: out.(s))
    edges;
  let q = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
  let seen = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    incr seen;
    List.iter
      (fun d ->
        indeg.(d) <- indeg.(d) - 1;
        if indeg.(d) = 0 then Queue.add d q)
      out.(v)
  done;
  !seen = n

let validate dp =
  let exception Bad of string in
  let n = Array.length dp.nodes in
  try
    Array.iteri
      (fun i nd ->
        if nd.id <> i then raise (Bad (Printf.sprintf "node %d id mismatch" i));
        if nd.width < 1 || nd.width > natural_width nd.kind then
          raise
            (Bad
               (Printf.sprintf "node %d: width %d outside 1..%d" i nd.width
                  (natural_width nd.kind)));
        match nd.kind with
        | Fu k ->
            if nd.ops = [] then raise (Bad (Printf.sprintf "FU %d has no ops" i));
            List.iter
              (fun op ->
                if not (String.equal (Op.kind op) k) then
                  raise
                    (Bad (Printf.sprintf "FU %d: op %s not of kind %s" i
                            (Op.mnemonic op) k)))
              nd.ops
        | Creg | In_port | Bit_in_port -> ())
      dp.nodes;
    List.iter
      (fun e ->
        if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
          raise (Bad "edge endpoint out of range");
        match dp.nodes.(e.dst).kind with
        | Fu _ -> ()
        | _ -> raise (Bad "edge into a non-FU node"))
      dp.edges;
    if not (is_acyclic dp) then raise (Bad "static cycle");
    List.iter
      (fun c ->
        List.iter
          (fun ((dst, port), src) ->
            if not (List.exists (fun e -> e.src = src && e.dst = dst && e.port = port) dp.edges)
            then
              raise
                (Bad (Printf.sprintf "config %s routes a missing edge %d->%d.%d"
                        c.label src dst port)))
          c.routes;
        List.iter
          (fun (fu, op) ->
            match dp.nodes.(fu).kind with
            | Fu k when String.equal (Op.kind op) k ->
                if not (List.mem op dp.nodes.(fu).ops) then
                  raise (Bad (Printf.sprintf "config %s: FU %d lacks op %s"
                                c.label fu (Op.mnemonic op)))
            | _ -> raise (Bad (Printf.sprintf "config %s: node %d not an FU" c.label fu)))
          c.fu_ops)
      dp.configs;
    Ok ()
  with Bad m -> Error m

let n_word_inputs dp =
  Array.fold_left
    (fun acc n -> if n.kind = In_port then acc + 1 else acc)
    0 dp.nodes

let n_bit_inputs dp =
  Array.fold_left
    (fun acc n -> if n.kind = Bit_in_port then acc + 1 else acc)
    0 dp.nodes

let n_outputs dp =
  List.fold_left
    (fun acc c -> max acc (List.length c.outputs))
    0 dp.configs

let evaluate dp config ~env =
  let n = Array.length dp.nodes in
  let memo = Array.make n None in
  let visiting = Array.make n false in
  let rec value id =
    if id < 0 || id >= n then
      invalid_arg
        (Printf.sprintf "Datapath.evaluate: reference to non-existent node %d"
           id);
    match memo.(id) with
    | Some v -> v
    | None ->
        if visiting.(id) then
          invalid_arg
            (Printf.sprintf "Datapath.evaluate: active cycle through node %d" id);
        visiting.(id) <- true;
        let nd = dp.nodes.(id) in
        let v =
          match nd.kind with
          | In_port | Bit_in_port -> (
              match List.assoc_opt id env with
              | Some v -> v
              | None ->
                  invalid_arg
                    (Printf.sprintf "Datapath.evaluate: input %d unset" id))
          | Creg -> (
              match List.assoc_opt id config.consts with
              | Some v -> v
              | None -> 0)
          | Fu _ -> (
              match List.assoc_opt id config.fu_ops with
              | None ->
                  invalid_arg
                    (Printf.sprintf "Datapath.evaluate: FU %d inactive" id)
              | Some op ->
                  let args =
                    Array.init (Op.arity op) (fun port ->
                        match List.assoc_opt (id, port) config.routes with
                        | Some src -> value src
                        | None ->
                            invalid_arg
                              (Printf.sprintf
                                 "Datapath.evaluate: no route for %d.%d" id port))
                  in
                  Apex_dfg.Sem.eval op args)
        in
        visiting.(id) <- false;
        memo.(id) <- Some v;
        v
  in
  List.map (fun (pos, node) -> (pos, value node)) config.outputs

let log2ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  if n <= 1 then 0 else go 0 1

let fu_menu (n : node) = List.sort_uniq Op.compare n.ops

(* (key, value) pairs grouped by key: (key, sorted distinct values) in
   key order *)
let group_sorted pairs =
  List.fold_right
    (fun (k, v) acc ->
      match acc with
      | (k', vs) :: rest when k' = k -> (k, v :: vs) :: rest
      | _ -> (k, [ v ]) :: acc)
    (List.sort_uniq compare pairs) []

let mux_sources dp =
  group_sorted (List.map (fun e -> ((e.dst, e.port), e.src)) dp.edges)

let output_candidates dp =
  group_sorted (List.concat_map (fun c -> c.outputs) dp.configs)

let mux_points dp =
  List.filter_map
    (fun (key, srcs) ->
      let n = List.length srcs in
      if n >= 2 then Some (key, n) else None)
    (mux_sources dp)

let n_config_bits dp =
  let fu_bits =
    Array.fold_left
      (fun acc n ->
        match n.kind with
        | Fu _ -> acc + log2ceil (List.length (fu_menu n))
        (* a narrowed constant register only stores its proven width *)
        | Creg -> acc + n.width
        | In_port | Bit_in_port -> acc)
      0 dp.nodes
  in
  let mux_bits =
    List.fold_left (fun acc (_, n) -> acc + log2ceil n) 0 (mux_points dp)
  in
  let out_bits =
    List.fold_left
      (fun acc (_, cands) -> acc + log2ceil (List.length cands))
      0 (output_candidates dp)
  in
  fu_bits + mux_bits + out_bits + 1 (* +1 active bit *)

let area dp =
  let fu_area =
    Array.fold_left
      (fun acc n ->
        match n.kind with
        | Fu k ->
            let slices =
              match fu_menu n with
              | [] -> 0.0
              | _ :: rest -> List.fold_left (fun a op -> a +. Tech.op_slice op) 0.0 rest
            in
            (* block and slices shrink together with the proven width *)
            acc
            +. (((Tech.kind_cost k).area +. slices)
                *. Tech.width_factor ~kind:k ~width:n.width)
        | Creg ->
            acc
            +. (Tech.const_register_cost.area
                *. Tech.width_factor ~kind:"creg" ~width:n.width)
        | In_port | Bit_in_port -> acc)
      0.0 dp.nodes
  in
  let mux_area =
    List.fold_left
      (fun acc ((dst, port), srcs) ->
        let n = List.length srcs in
        if n < 2 then acc
        else
          let w =
            (* width of the port: look at the widths expected by the dst ops *)
            let widths = Op.input_widths (List.hd dp.nodes.(dst).ops) in
            if port < Array.length widths then widths.(port) else Op.Word
          in
          let c = (Tech.word_mux_cost n).area in
          match w with
          | Op.Word ->
              (* the mux only switches the sources' live bits: anything
                 above a producer's proven width is a known-zero or
                 never-demanded wire, not a switched one *)
              let wmax =
                List.fold_left (fun acc s -> max acc dp.nodes.(s).width) 1 srcs
              in
              acc +. (c *. Tech.width_factor ~kind:"mux" ~width:wmax)
          | Op.Bit -> acc +. (c /. 16.0))
      0.0 (mux_sources dp)
  in
  let out_mux_area =
    List.fold_left
      (fun acc (_, cands) -> acc +. (Tech.word_mux_cost (List.length cands)).area)
      0.0 (output_candidates dp)
  in
  let cfg = (Tech.config_overhead ~n_config_bits:(n_config_bits dp)).area in
  fu_area +. mux_area +. out_mux_area +. cfg

let pp ppf dp =
  Format.fprintf ppf "@[<v>datapath: %d nodes, %d edges, %d configs@,"
    (Array.length dp.nodes) (List.length dp.edges) (List.length dp.configs);
  Array.iter
    (fun n ->
      let kind =
        match n.kind with
        | Fu k -> "fu:" ^ k
        | Creg -> "creg"
        | In_port -> "in"
        | Bit_in_port -> "bit_in"
      in
      Format.fprintf ppf "  n%d %s [%s]@," n.id kind
        (String.concat " " (List.map Op.mnemonic n.ops)))
    dp.nodes;
  List.iter
    (fun e -> Format.fprintf ppf "  n%d -> n%d.%d@," e.src e.dst e.port)
    dp.edges;
  Format.fprintf ppf "@]"

(* one DOT escaper for the whole flow *)
let dot_escape = Apex_dfg.Dot.escape

(* deterministic: nodes in id order, edges sorted by (src, dst, port),
   labels escaped — stable goldens no matter how the merge ordered the
   edge list *)
let to_dot ?(name = "datapath") dp =
  let fanin = mux_sources dp in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=TB;\n" name);
  Array.iter
    (fun n ->
      let label, shape =
        match n.kind with
        | Fu k ->
            ( Printf.sprintf "%s\\n%s" (dot_escape k)
                (dot_escape
                   (String.concat " " (List.map Op.mnemonic (fu_menu n)))),
              "box" )
        | Creg -> ("creg", "diamond")
        | In_port -> ("in", "oval")
        | Bit_in_port -> ("bit in", "oval")
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%d: %s\", shape=%s];\n" n.id n.id label
           shape))
    dp.nodes;
  List.iter
    (fun e ->
      let srcs = List.assoc (e.dst, e.port) fanin in
      let style = if List.length srcs >= 2 then ", style=dashed" else "" in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"p%d\"%s];\n" e.src e.dst e.port
           style))
    (List.sort_uniq
       (fun (a : edge) (b : edge) -> compare (a.src, a.dst, a.port) (b.src, b.dst, b.port))
       dp.edges);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
