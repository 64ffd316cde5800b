module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Pattern = Apex_mining.Pattern
module D = Apex_merging.Datapath
module Spec = Apex_peak.Spec
module Bv = Apex_smt.Bv
module Sat = Apex_smt.Sat

type rule = {
  pattern : Pattern.t;
  config : D.config;
  verdict : Verify.verdict;
}

let op_pattern op =
  if not (Op.is_compute op) then invalid_arg "Synth.op_pattern: not a compute op";
  let b = G.Builder.create () in
  let args =
    Array.mapi
      (fun i w ->
        match (w : Op.width) with
        | Op.Word -> G.Builder.add0 b (Op.Input (Printf.sprintf "x%d" i))
        | Op.Bit -> G.Builder.add0 b (Op.Bit_input (Printf.sprintf "p%d" i)))
      (Op.input_widths op)
  in
  let n = G.Builder.add b op args in
  (match Op.result_width op with
  | Op.Word -> ignore (G.Builder.add1 b (Op.Output "y") n)
  | Op.Bit -> ignore (G.Builder.add1 b (Op.Bit_output "y") n));
  Pattern.of_graph (G.Builder.finish b)

let has_edge (dp : D.t) ~src ~dst ~port =
  List.exists (fun (e : D.edge) -> e.src = src && e.dst = dst && e.port = port)
    dp.D.edges

(* --- structural search --- *)

exception Found of D.config

let structural_candidates dp p ~on_candidate =
  let pg = Pattern.graph p in
  let emitted = ref 0 in
  let internal =
    List.filter
      (fun i ->
        let op = (G.node pg i).op in
        Op.is_compute op || Op.is_const op)
      (List.init (G.length pg) Fun.id)
  in
  let sinks =
    (* pattern outputs in position order with their source nodes *)
    G.io_outputs pg |> List.mapi (fun i (n : G.node) -> (i, n.args.(0)))
  in
  let out_cands = D.output_candidates dp in
  let node_map : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let used : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let input_map : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let used_port : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let creg_val : (int, int) Hashtbl.t = Hashtbl.create 16 in
  (* try to bind pattern node [u]'s argument [a] to feed FU [f] at [port] *)
  let bind_arg f port a k =
    let an = G.node pg a in
    match an.op with
    | Op.Input _ | Op.Bit_input _ -> (
        match Hashtbl.find_opt input_map a with
        | Some s -> if has_edge dp ~src:s ~dst:f ~port then k ()
        | None ->
            let wanted_kind =
              match an.op with Op.Bit_input _ -> D.Bit_in_port | _ -> D.In_port
            in
            Array.iter
              (fun (s : D.node) ->
                if s.kind = wanted_kind && (not (Hashtbl.mem used_port s.id))
                   && has_edge dp ~src:s.id ~dst:f ~port
                then begin
                  Hashtbl.replace input_map a s.id;
                  Hashtbl.replace used_port s.id ();
                  k ();
                  Hashtbl.remove input_map a;
                  Hashtbl.remove used_port s.id
                end)
              dp.D.nodes)
    | _ -> (
        (* internal node (compute or const), must already be mapped *)
        match Hashtbl.find_opt node_map a with
        | Some m -> if has_edge dp ~src:m ~dst:f ~port then k ()
        | None -> ())
  in
  let const_value op =
    match (op : Op.t) with
    | Op.Const v -> v land 0xffff
    | Op.Bit_const b -> if b then 1 else 0
    | _ -> assert false
  in
  (* map internal pattern nodes in topological (id) order, so arguments
     are always mapped before their consumers *)
  let rec place = function
    | [] -> finish ()
    | u :: rest ->
        Apex_guard.tick ();
        let un = G.node pg u in
        if Op.is_const un.op then begin
          let v = const_value un.op in
          Array.iter
            (fun (c : D.node) ->
              if c.kind = D.Creg then begin
                match Hashtbl.find_opt creg_val c.id with
                | Some v' ->
                    if v' = v && not (Hashtbl.mem used c.id) then begin
                      (* same value: share the register *)
                      Hashtbl.replace node_map u c.id;
                      place rest;
                      Hashtbl.remove node_map u
                    end
                | None ->
                    Hashtbl.replace creg_val c.id v;
                    Hashtbl.replace node_map u c.id;
                    place rest;
                    Hashtbl.remove node_map u;
                    Hashtbl.remove creg_val c.id
              end)
            dp.D.nodes
        end
        else begin
          let kind = Op.kind un.op in
          Array.iter
            (fun (f : D.node) ->
              let supports =
                match f.kind with
                | D.Fu "lut" -> String.equal kind "lut"
                | D.Fu k -> String.equal k kind && List.mem un.op f.ops
                | _ -> false
              in
              if supports && not (Hashtbl.mem used f.id) then begin
                Hashtbl.replace node_map u f.id;
                Hashtbl.replace used f.id ();
                let arity = Op.arity un.op in
                let perms =
                  if Op.is_commutative un.op && arity = 2 then [ [| 0; 1 |]; [| 1; 0 |] ]
                  else [ Array.init arity Fun.id ]
                in
                List.iter
                  (fun perm ->
                    let rec ports i k =
                      if i = arity then k ()
                      else
                        bind_arg f.id perm.(i) un.args.(i) (fun () ->
                            ports (i + 1) k)
                    in
                    ports 0 (fun () -> place rest))
                  perms;
                Hashtbl.remove node_map u;
                Hashtbl.remove used f.id
              end)
            dp.D.nodes
        end
  and finish () =
    (* all internal nodes mapped: assign outputs to positions *)
    let rec assign_outputs taken acc = function
      | [] -> emit (List.rev acc)
      | (pos_i, sink) :: rest ->
          let m = Hashtbl.find node_map sink in
          List.iter
            (fun (pos, cands) ->
              if (not (List.mem pos taken)) && List.mem m cands then
                assign_outputs (pos :: taken) ((pos_i, pos, m) :: acc) rest)
            out_cands
    in
    assign_outputs [] [] sinks
  and emit outs =
    incr emitted;
    if !emitted > 2000 then raise Exit;
    (* reconstruct the configuration; recompute port routing *)
    let fu_ops = ref [] and routes = ref [] in
    List.iter
      (fun u ->
        let un = G.node pg u in
        if Op.is_compute un.op then begin
          let f = Hashtbl.find node_map u in
          fu_ops := (f, un.op) :: !fu_ops;
          (* recover the ports actually used: recheck both permutations
             and record the first consistent one *)
          let arity = Op.arity un.op in
          let perms =
            if Op.is_commutative un.op && arity = 2 then [ [| 0; 1 |]; [| 1; 0 |] ]
            else [ Array.init arity Fun.id ]
          in
          let src_of a =
            match Hashtbl.find_opt node_map a with
            | Some m -> Some m
            | None -> Hashtbl.find_opt input_map a
          in
          let ok_perm perm =
            let all = ref true in
            Array.iteri
              (fun i p ->
                match src_of un.args.(i) with
                | Some s -> if not (has_edge dp ~src:s ~dst:f ~port:p) then all := false
                | None -> all := false)
              perm;
            !all
          in
          match List.find_opt ok_perm perms with
          | None -> ()
          | Some perm ->
              Array.iteri
                (fun i p ->
                  match src_of un.args.(i) with
                  | Some s -> routes := ((f, p), s) :: !routes
                  | None -> ())
                perm
        end)
      internal;
    (* one entry per pattern constant, in pattern node order, so rule
       application can re-pair constants positionally (duplicate creg
       keys with equal values are harmless for lookup) *)
    let consts =
      List.filter_map
        (fun u ->
          let un = G.node pg u in
          if Op.is_const un.op then
            Some (Hashtbl.find node_map u, const_value un.op)
          else None)
        internal
    in
    let inputs =
      Hashtbl.fold (fun pi port acc -> (pi, port) :: acc) input_map []
      |> List.sort compare
    in
    let outputs = List.map (fun (_, pos, m) -> (pos, m)) outs in
    let cfg =
      { D.label = Pattern.code p;
        fu_ops = List.rev !fu_ops;
        routes = List.sort_uniq compare !routes;
        consts;
        inputs;
        outputs = List.sort compare outputs }
    in
    on_candidate cfg
  in
  try place internal with Exit -> ()

let structural ?(width = 8) dp p =
  Apex_telemetry.Span.with_ "synth" @@ fun () ->
  Apex_guard.with_phase "synthesis" @@ fun () ->
  Apex_telemetry.Counter.incr "rules.attempted";
  let code = Pattern.code p in
  let result = ref None in
  let try_cfg cfg =
    match Verify.verify_config ~width dp cfg p with
    | (Verify.Proved _ | Verify.Tested) as verdict ->
        result := Some { pattern = p; config = cfg; verdict };
        raise (Found cfg)
    | Verify.Refuted _ -> ()
  in
  (* provenance first: configurations recorded during merging *)
  let provenance =
    List.filter (fun (c : D.config) -> String.equal c.D.label code) dp.D.configs
  in
  (try
     List.iter (fun (cfg : D.config) -> if cfg.D.inputs <> [] then try_cfg cfg)
       provenance;
     structural_candidates dp p ~on_candidate:try_cfg
   with
  | Found _ -> ()
  | Apex_guard.Cancelled _ ->
      (* budget trip mid-search: no rule for this pattern this run — the
         mapper simply cannot use it, which costs coverage, not
         soundness.  (A Verify trip surfaces the same way: the verdict
         ladder already turned an Unknown proof into Tested.) *)
      Apex_guard.Outcome.record ~phase:"synthesis"
        (Apex_guard.Outcome.Degraded Apex_guard.Outcome.Deadline));
  if !result <> None then Apex_telemetry.Counter.incr "rules.synthesized";
  !result

