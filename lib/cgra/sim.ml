module Spec = Apex_peak.Spec
module D = Apex_merging.Datapath
module Cover = Apex_mapper.Cover
module App_pipeline = Apex_pipelining.App_pipeline

type report = {
  outputs : (string * int) list list;
  cycles : int;
}

let run ~(spec : Spec.t) ~(mapped : Cover.t) ~(plan : App_pipeline.plan)
    ~(bitstream : Bitstream.t) ~(placement : Place.t) ~frames =
  let dp = spec.dp in
  let n = Array.length mapped.instances in
  let latency = max 1 plan.pe_latency in
  (* PE configurations decoded from the bitstream *)
  let configs =
    Array.init n (fun i ->
        let tile = placement.loc.(i) in
        match Bitstream.instr_at bitstream spec tile with
        | None ->
            failwith
              (Printf.sprintf "Sim.run: no bitstream at tile (%d,%d)"
                 (fst tile) (snd tile))
        | Some instr -> Spec.decode spec instr)
  in
  (* every PE input port; one no connection drives reads 0, as an
     unselected connection box does *)
  let in_ports =
    List.filter_map
      (fun (nd : D.node) ->
        match nd.kind with
        | D.In_port | D.Bit_in_port -> Some nd.id
        | _ -> None)
      (Array.to_list dp.nodes)
  in
  (* per-instance output pipelines, oldest last *)
  let pipes = Array.make n [] in
  for i = 0 to n - 1 do
    pipes.(i) <- List.init latency (fun _ -> [])
  done;
  (* delay lines for balanced edges, keyed by (consumer, port) *)
  let delays : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ((consumer, port), k) ->
      Hashtbl.replace delays (consumer, port) (ref (List.init k (fun _ -> 0))))
    plan.edge_regs;
  let n_frames = List.length frames in
  let frames = Array.of_list frames in
  let total_cycles = n_frames + plan.depth_cycles in
  let results = ref [] in
  for cycle = 0 to total_cycles - 1 do
    let inputs_now name =
      if cycle < n_frames then
        Option.value ~default:0 (List.assoc_opt name frames.(cycle))
      else 0
    in
    (* raw (undelayed) value of a driver, from the old state *)
    let raw (drv : Cover.driver) =
      match drv with
      | Cover.From_input name -> inputs_now name
      | Cover.From_pe (j, pos) -> (
          match pipes.(j) with
          | [] -> 0
          | stages -> (
              match List.nth_opt stages (latency - 1) with
              | Some outs -> Option.value ~default:0 (List.assoc_opt pos outs)
              | None -> 0))
    in
    (* delayed value as seen by (consumer, port) *)
    let delayed consumer port drv =
      match Hashtbl.find_opt delays (consumer, port) with
      | None -> raw drv
      | Some line -> (
          match List.rev !line with last :: _ -> last | [] -> raw drv)
    in
    (* evaluate all instances from the old state *)
    let comb =
      Array.mapi
        (fun i (inst : Cover.instance) ->
          let env =
            List.map
              (fun port ->
                match List.assoc_opt port inst.inputs with
                | Some drv -> (port, delayed i port drv)
                | None -> (port, 0))
              in_ports
          in
          D.evaluate dp configs.(i) ~env)
        mapped.instances
    in
    (* capture outputs for the frame finishing this cycle *)
    if cycle >= plan.depth_cycles then begin
      let outs =
        List.mapi
          (fun k (name, drv) -> (name, delayed (-1 - k) 0 drv))
          mapped.outputs
      in
      results := outs :: !results
    end;
    (* commit: shift delay lines, then instance pipelines *)
    Hashtbl.iter
      (fun (consumer, port) line ->
        let drv =
          if consumer >= 0 then
            List.assoc port mapped.instances.(consumer).Cover.inputs
          else snd (List.nth mapped.outputs (-1 - consumer))
        in
        match !line with
        | [] -> ()
        | l -> line := raw drv :: List.filteri (fun i _ -> i < List.length l - 1) l)
      delays;
    Array.iteri
      (fun i stages ->
        pipes.(i) <-
          comb.(i) :: List.filteri (fun k _ -> k < latency - 1) stages)
      pipes
  done;
  { outputs = List.rev !results; cycles = total_cycles }
