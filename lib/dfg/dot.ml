(* Graphviz export.  The output is deterministic — nodes in id order,
   edges sorted by (src, dst, port) — so goldens and diffs are stable
   across runs, and labels are escaped so arbitrary stream names cannot
   break the DOT syntax. *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string ?(name = "dfg") ?(highlight = []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=TB;\n" name);
  Array.iter
    (fun (n : Graph.node) ->
      let shape =
        if Op.is_io n.op then "oval"
        else if Op.is_const n.op then "diamond"
        else "box"
      in
      let style =
        if List.mem n.id highlight then ", style=filled, fillcolor=lightblue"
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s%s];\n" n.id
           (escape (Op.mnemonic n.op))
           shape style))
    (Graph.nodes g);
  let edges =
    Array.fold_left
      (fun acc (n : Graph.node) ->
        Array.to_list (Array.mapi (fun port a -> (a, n.id, port)) n.args) @ acc)
      [] (Graph.nodes g)
    |> List.sort compare
  in
  List.iter
    (fun (src, dst, port) ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%d\"];\n" src dst port))
    edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
