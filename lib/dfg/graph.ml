type node = { id : int; op : Op.t; args : int array }

(* [widths] is a post-hoc analysis annotation (proven result width per
   node id, from [Apex_analysis.Width]); every structural
   transformation drops it, since the proof is per-graph *)
type t = { nodes : node array; widths : int array option }

let nodes g = g.nodes

let node g i =
  if i < 0 || i >= Array.length g.nodes then
    invalid_arg (Printf.sprintf "Graph.node: id %d out of range" i);
  g.nodes.(i)

let length g = Array.length g.nodes

let succs g =
  let s = Array.make (length g) [] in
  Array.iter
    (fun n -> Array.iter (fun a -> s.(a) <- n.id :: s.(a)) n.args)
    g.nodes;
  Array.map List.rev s

(* [i] counts once per consuming port, as in [succs] *)
let fanout g i =
  Array.fold_left
    (fun acc n ->
      Array.fold_left (fun acc a -> if a = i then acc + 1 else acc) acc n.args)
    0 g.nodes

let compute_ids g =
  Array.to_list g.nodes
  |> List.filter (fun n -> Op.is_compute n.op)
  |> List.map (fun n -> n.id)

let io_inputs g =
  Array.to_list g.nodes
  |> List.filter (fun n ->
         match n.op with Op.Input _ | Op.Bit_input _ -> true | _ -> false)

let io_outputs g =
  Array.to_list g.nodes
  |> List.filter (fun n ->
         match n.op with Op.Output _ | Op.Bit_output _ -> true | _ -> false)

let count g pred =
  Array.fold_left (fun acc n -> if pred n.op then acc + 1 else acc) 0 g.nodes

(* testing escape hatch: the lint suite builds deliberately corrupt
   graphs through this; everything else goes through Builder *)
let of_nodes_unchecked nodes = { nodes = Array.copy nodes; widths = None }

let validate g =
  let exception Bad of string in
  try
    Array.iteri
      (fun i n ->
        if n.id <> i then raise (Bad (Printf.sprintf "node %d has id %d" i n.id));
        let ar = Op.arity n.op in
        if Array.length n.args <> ar then
          raise
            (Bad
               (Printf.sprintf "node %d (%s): arity %d, got %d args" i
                  (Op.mnemonic n.op) ar (Array.length n.args)));
        let widths = Op.input_widths n.op in
        Array.iteri
          (fun p a ->
            if a < 0 || a >= i then
              raise
                (Bad
                   (Printf.sprintf "node %d (%s): arg %d not topologically before"
                      i (Op.mnemonic n.op) a));
            let actual = Op.result_width g.nodes.(a).op in
            if actual <> widths.(p) then
              raise
                (Bad
                   (Printf.sprintf "node %d (%s): port %d width mismatch with %s"
                      i (Op.mnemonic n.op) p
                      (Op.mnemonic g.nodes.(a).op))))
          n.args)
      g.nodes;
    Ok ()
  with Bad m -> Error m

module Builder = struct
  type t = { mutable buf : node array; mutable len : int }

  let create () = { buf = [||]; len = 0 }

  let grow b =
    let cap = max 16 (2 * Array.length b.buf) in
    let nb = Array.make cap { id = -1; op = Op.Reg; args = [||] } in
    Array.blit b.buf 0 nb 0 b.len;
    b.buf <- nb

  (* single normalization point: every graph built through Builder has
     in-range literals, so the interpreter, the analysis domains and the
     SMT encodings never see an out-of-range constant *)
  let normalize_op (op : Op.t) =
    match op with
    | Op.Const v -> Op.Const (v land 0xffff)
    | Op.Lut tt -> Op.Lut (tt land 0xff)
    | _ -> op

  let add b op args =
    let op = normalize_op op in
    if Array.length args <> Op.arity op then
      invalid_arg
        (Printf.sprintf "Builder.add: %s expects %d args, got %d"
           (Op.mnemonic op) (Op.arity op) (Array.length args));
    Array.iter
      (fun a ->
        if a < 0 || a >= b.len then
          invalid_arg
            (Printf.sprintf "Builder.add: %s arg id %d not yet defined"
               (Op.mnemonic op) a))
      args;
    if b.len >= Array.length b.buf then grow b;
    let id = b.len in
    b.buf.(id) <- { id; op; args = Array.copy args };
    b.len <- b.len + 1;
    id

  let add0 b op = add b op [||]
  let add1 b op a = add b op [| a |]
  let add2 b op a0 a1 = add b op [| a0; a1 |]
  let add3 b op a0 a1 a2 = add b op [| a0; a1; a2 |]

  let finish b = { nodes = Array.sub b.buf 0 b.len; widths = None }
end

let map_ops g f =
  { nodes = Array.map (fun n -> { n with op = f n.op }) g.nodes;
    widths = None }

let induced g ids =
  (* kept nodes are visited in ascending id order, which is topological
     order, so every kept argument is remapped before its consumer *)
  let ids = List.sort Int.compare ids in
  let rec check prev = function
    | [] -> ()
    | i :: rest ->
        if i < 0 || i >= length g then
          invalid_arg (Printf.sprintf "Graph.induced: id %d out of range" i);
        if i = prev then
          invalid_arg (Printf.sprintf "Graph.induced: id %d listed twice" i);
        check i rest
  in
  check (-1) ids;
  let b = Builder.create () in
  let remap = Hashtbl.create 16 in
  let fresh = ref 0 in
  let external_input w =
    incr fresh;
    let name = "x" ^ string_of_int !fresh in
    match w with
    | Op.Word -> Builder.add0 b (Op.Input name)
    | Op.Bit -> Builder.add0 b (Op.Bit_input name)
  in
  let mapping =
    List.map
      (fun id ->
        let n = g.nodes.(id) in
        let args =
          Array.map
            (fun a ->
              match Hashtbl.find_opt remap a with
              | Some a' -> a'
              | None ->
                  let w = Op.result_width g.nodes.(a).op in
                  let a' = external_input w in
                  Hashtbl.replace remap a a';
                  a')
            n.args
        in
        (* arguments outside the kept set get one shared fresh input per
           source node, preserving sharing inside the subgraph *)
        let id' = Builder.add b n.op args in
        Hashtbl.replace remap id id';
        (id, id'))
      ids
  in
  (Builder.finish b, mapping)

let with_widths g widths =
  if Array.length widths <> length g then
    invalid_arg
      (Printf.sprintf "Graph.with_widths: %d widths for %d nodes"
         (Array.length widths) (length g));
  { g with widths = Some (Array.copy widths) }

let widths g = Option.map Array.copy g.widths

let op_histogram g =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      let k = Op.mnemonic n.op in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    g.nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp ppf g =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun n ->
      Format.fprintf ppf "%%%d = %s(%s)@," n.id (Op.mnemonic n.op)
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "%%%d") n.args))))
    g.nodes;
  Format.fprintf ppf "@]"
