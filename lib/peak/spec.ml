module Op = Apex_dfg.Op
module D = Apex_merging.Datapath

type field = { name : string; bits : int; choices : int; target : target }

and target =
  | Fu_op of int
  | Mux of int * int
  | Const_val of int
  | Lut_table of int
  | Out_sel of int

type t = { name : string; dp : D.t; fields : field list }

type instr = (string * int) list

let is_lut_fu (n : D.node) =
  match n.kind with D.Fu "lut" -> true | _ -> false

let of_datapath ~name dp =
  let fields = ref [] in
  let addf f = fields := f :: !fields in
  Array.iter
    (fun (n : D.node) ->
      match n.D.kind with
      | D.Fu _ when is_lut_fu n ->
          addf
            { name = Printf.sprintf "fu%d_lut" n.id; bits = 8; choices = 256;
              target = Lut_table n.id }
      | D.Fu _ ->
          let ops = D.fu_menu n in
          if List.length ops >= 2 then
            addf
              { name = Printf.sprintf "fu%d_op" n.id;
                bits = D.log2ceil (List.length ops);
                choices = List.length ops;
                target = Fu_op n.id }
      | D.Creg ->
          addf
            { name = Printf.sprintf "creg%d" n.id; bits = 16; choices = 65536;
              target = Const_val n.id }
      | D.In_port | D.Bit_in_port -> ())
    dp.D.nodes;
  List.iter
    (fun ((dst, port), srcs) ->
      let n = List.length srcs in
      if n >= 2 then
        addf
          { name = Printf.sprintf "mux%d_%d" dst port; bits = D.log2ceil n;
            choices = n; target = Mux (dst, port) })
    (D.mux_sources dp);
  List.iter
    (fun (pos, cands) ->
      let n = List.length cands in
      if n >= 2 then
        addf
          { name = Printf.sprintf "out%d_sel" pos; bits = D.log2ceil n; choices = n;
            target = Out_sel pos })
    (D.output_candidates dp);
  { name; dp; fields = List.rev !fields }

let n_config_bits spec =
  List.fold_left (fun acc f -> acc + f.bits) 0 spec.fields

let field spec name =
  List.find (fun (f : field) -> String.equal f.name name) spec.fields

let index_of x l =
  let rec go i = function
    | [] -> None
    | y :: rest -> if y = x then Some i else go (i + 1) rest
  in
  go 0 l

let encode spec (cfg : D.config) =
  let dp = spec.dp in
  let srcs = D.mux_sources dp in
  let cands = D.output_candidates dp in
  List.filter_map
    (fun f ->
      match f.target with
      | Fu_op fu -> (
          match List.assoc_opt fu cfg.D.fu_ops with
          | None -> None
          | Some op -> (
              match index_of op (D.fu_menu dp.D.nodes.(fu)) with
              | Some i -> Some (f.name, i)
              | None -> failwith (Printf.sprintf "Spec.encode: FU %d lacks op" fu)))
      | Lut_table fu -> (
          match List.assoc_opt fu cfg.D.fu_ops with
          | Some (Op.Lut tt) -> Some (f.name, tt land 0xff)
          | Some _ -> failwith "Spec.encode: non-LUT op on a LUT FU"
          | None -> None)
      | Mux (dst, port) -> (
          match List.assoc_opt (dst, port) cfg.D.routes with
          | None -> None
          | Some src -> (
              match index_of src (List.assoc (dst, port) srcs) with
              | Some i -> Some (f.name, i)
              | None ->
                  failwith
                    (Printf.sprintf "Spec.encode: no mux path %d -> %d.%d" src
                       dst port)))
      | Const_val cr -> (
          match List.assoc_opt cr cfg.D.consts with
          | None -> None
          | Some v -> Some (f.name, v land 0xffff))
      | Out_sel pos -> (
          match List.assoc_opt pos cfg.D.outputs with
          | None -> None
          | Some node -> (
              match index_of node (List.assoc pos cands) with
              | Some i -> Some (f.name, i)
              | None -> failwith "Spec.encode: output candidate missing")))
    spec.fields

let decode spec (instr : instr) =
  let dp = spec.dp in
  let get name = Option.value ~default:0 (List.assoc_opt name instr) in
  let fu_ops =
    Array.to_list dp.D.nodes
    |> List.filter_map (fun (n : D.node) ->
           match n.D.kind with
           | D.Fu _ when is_lut_fu n ->
               Some (n.id, Op.Lut (get (Printf.sprintf "fu%d_lut" n.id) land 0xff))
           | D.Fu _ ->
               let ops = D.fu_menu n in
               let i = get (Printf.sprintf "fu%d_op" n.id) in
               let i = if i < List.length ops then i else 0 in
               Some (n.id, List.nth ops i)
           | _ -> None)
  in
  let routes =
    List.map
      (fun ((dst, port), srcs) ->
        let i = get (Printf.sprintf "mux%d_%d" dst port) in
        let i = if i < List.length srcs then i else 0 in
        ((dst, port), List.nth srcs i))
      (D.mux_sources dp)
  in
  let consts =
    Array.to_list dp.D.nodes
    |> List.filter_map (fun (n : D.node) ->
           match n.D.kind with
           | D.Creg -> Some (n.id, get (Printf.sprintf "creg%d" n.id) land 0xffff)
           | _ -> None)
  in
  let outputs =
    List.map
      (fun (pos, cands) ->
        let i = get (Printf.sprintf "out%d_sel" pos) in
        let i = if i < List.length cands then i else 0 in
        (pos, List.nth cands i))
      (D.output_candidates dp)
  in
  { D.label = "decoded"; fu_ops; routes; consts; inputs = []; outputs }

let eval spec instr ~env =
  let cfg = decode spec instr in
  D.evaluate spec.dp cfg ~env

let input_ports spec =
  Array.to_list spec.dp.D.nodes
  |> List.filter_map (fun (n : D.node) ->
         match n.D.kind with D.In_port -> Some n.id | _ -> None)

let bit_input_ports spec =
  Array.to_list spec.dp.D.nodes
  |> List.filter_map (fun (n : D.node) ->
         match n.D.kind with D.Bit_in_port -> Some n.id | _ -> None)

let output_positions spec = List.map fst (D.output_candidates spec.dp)
