type env = (string * int) list

let values g env =
  let n = Graph.length g in
  let vals = Array.make n 0 in
  let lookup name = List.assoc name env in
  Array.iter
    (fun (node : Graph.node) ->
      let v =
        match node.op with
        | Op.Input name -> Sem.mask (lookup name)
        | Op.Bit_input name -> lookup name land 1
        | Op.Output _ | Op.Bit_output _ -> vals.(node.args.(0))
        | op -> Sem.eval op (Array.map (fun a -> vals.(a)) node.args)
      in
      vals.(node.id) <- v)
    (Graph.nodes g);
  vals

let run g env =
  let vals = values g env in
  Graph.io_outputs g
  |> List.map (fun (n : Graph.node) ->
         match n.op with
         | Op.Output name | Op.Bit_output name -> (name, vals.(n.id))
         | _ -> assert false)

let random_env st g =
  Graph.io_inputs g
  |> List.map (fun (n : Graph.node) ->
         match n.op with
         | Op.Input name -> (name, Random.State.int st 0x10000)
         | Op.Bit_input name -> (name, Random.State.int st 2)
         | _ -> assert false)
