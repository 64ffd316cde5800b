module G = Apex_dfg.Graph
module Op = Apex_dfg.Op

type binding = { nodes : (int * int) list; inputs : (int * int) list }

let is_internal op = Op.is_compute op || Op.is_const op

let is_input op = match op with Op.Input _ | Op.Bit_input _ -> true | _ -> false

(* operation comparison; [wild] treats constant values and LUT truth
   tables as wildcards (const-generic rewrite rules) *)
let ops_match ~wild a b =
  Op.equal a b
  || wild
     && (match (a, b) with
        | Op.Const _, Op.Const _
        | Op.Bit_const _, Op.Bit_const _
        | Op.Lut _, Op.Lut _ -> true
        | _ -> false)

(* Final full check of a candidate binding: operations, every internal
   edge mirrored under the recorded port permutations, injectivity, and
   input consistency.  The search below is already edge-driven; this
   re-verification keeps it simple and safe. *)
let verify ~wild p g (nodes : (int, int) Hashtbl.t)
    (inputs : (int, int) Hashtbl.t) (perm : (int, bool) Hashtbl.t) =
  let pg = Pattern.graph p in
  let internal_image = Hashtbl.create 16 in
  let ok = ref true in
  Hashtbl.iter
    (fun _ gi ->
      if Hashtbl.mem internal_image gi then ok := false
      else Hashtbl.replace internal_image gi ())
    nodes;
  (* inputs: pairwise distinct and disjoint from the internal image *)
  let input_image = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ gi ->
      if Hashtbl.mem internal_image gi || Hashtbl.mem input_image gi then
        ok := false
      else Hashtbl.replace input_image gi ())
    inputs;
  if !ok then begin
    Hashtbl.iter
      (fun pi gi ->
        let pn = G.node pg pi and gn = G.node g gi in
        if not (ops_match ~wild pn.op gn.op) then ok := false
        else begin
          let swapped = Option.value ~default:false (Hashtbl.find_opt perm pi) in
          let nports = Array.length pn.args in
          for k = 0 to nports - 1 do
            let gk = if swapped && nports = 2 then 1 - k else k in
            let pa = pn.args.(k) and ga = gn.args.(gk) in
            let expected =
              if is_input (G.node pg pa).op then Hashtbl.find_opt inputs pa
              else Hashtbl.find_opt nodes pa
            in
            match expected with
            | Some e when e = ga -> ()
            | _ -> ok := false
          done
        end)
      nodes
  end;
  !ok

(* the anchor is the pattern's last internal node, -1 if it has none *)
let anchor_of pg =
  let rec last i =
    if i < 0 || is_internal (G.node pg i).op then i else last (i - 1)
  in
  last (G.length pg - 1)

let matches_at ?(wild_consts = false) ~succs p g ~root =
  let wild = wild_consts in
  let pg = Pattern.graph p in
  let anchor = anchor_of pg in
  (* a root whose operation cannot bind the anchor costs one
     comparison: no search state is allocated for it *)
  if anchor < 0 || not (ops_match ~wild (G.node pg anchor).op (G.node g root).op)
  then []
  else begin
    let internal_ids =
      List.filter (fun i -> is_internal (G.node pg i).op)
        (List.init (G.length pg) Fun.id)
    in
    let n_internal = List.length internal_ids in
    let nodes : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let used : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let inputs : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let perm : (int, bool) Hashtbl.t = Hashtbl.create 16 in
    let results = ref [] in
    (* bind internal pattern node [pi] to graph node [gi], resolve its
       argument edges, then continue with [k] *)
    let rec bind pi gi k =
      let pn = G.node pg pi and gn = G.node g gi in
      if ops_match ~wild pn.op gn.op && not (Hashtbl.mem used gi) then begin
        Hashtbl.replace nodes pi gi;
        Hashtbl.replace used gi ();
        let perms =
          if Op.is_commutative pn.op && Array.length pn.args = 2 then
            [ false; true ]
          else [ false ]
        in
        List.iter
          (fun swapped ->
            Hashtbl.replace perm pi swapped;
            resolve_args pi gi swapped 0 k;
            Hashtbl.remove perm pi)
          perms;
        Hashtbl.remove nodes pi;
        Hashtbl.remove used gi
      end
    and resolve_args pi gi swapped port k =
      let pn = G.node pg pi and gn = G.node g gi in
      let nports = Array.length pn.args in
      if port = nports then k ()
      else begin
        let gport = if swapped && nports = 2 then 1 - port else port in
        let pa = pn.args.(port) and ga = gn.args.(gport) in
        let pa_op = (G.node pg pa).op in
        if is_input pa_op then begin
          match Hashtbl.find_opt inputs pa with
          | Some e ->
              if e = ga then resolve_args pi gi swapped (port + 1) k
          | None ->
              Hashtbl.replace inputs pa ga;
              resolve_args pi gi swapped (port + 1) k;
              Hashtbl.remove inputs pa
        end
        else begin
          match Hashtbl.find_opt nodes pa with
          | Some e ->
              if e = ga then resolve_args pi gi swapped (port + 1) k
          | None ->
              bind pa ga (fun () -> resolve_args pi gi swapped (port + 1) k)
        end
      end
    and extend () =
      if Hashtbl.length nodes = n_internal then begin
        if verify ~wild p g nodes inputs perm then
          results :=
            { nodes =
                Hashtbl.fold (fun a b acc -> (a, b) :: acc) nodes []
                |> List.sort compare;
              inputs =
                Hashtbl.fold (fun a b acc -> (a, b) :: acc) inputs []
                |> List.sort compare }
            :: !results
      end
      else begin
        (* an unbound internal node that consumes a bound producer *)
        let cand =
          List.find_opt
            (fun pi ->
              (not (Hashtbl.mem nodes pi))
              && Array.exists
                   (fun pa -> Hashtbl.mem nodes pa)
                   (G.node pg pi).args)
            internal_ids
        in
        match cand with
        | None -> () (* disconnected internal nodes: unsupported *)
        | Some pi ->
            let pa =
              Array.to_list (G.node pg pi).args
              |> List.find (fun a -> Hashtbl.mem nodes a)
            in
            let ga = Hashtbl.find nodes pa in
            List.iter (fun s -> bind pi s extend) succs.(ga)
      end
    in
    bind anchor root extend;
    List.rev !results
  end

let all_matches p g =
  let succs = G.succs g in
  let out = ref [] in
  for root = 0 to G.length g - 1 do
    out := List.rev_append (matches_at ~succs p g ~root) !out
  done;
  List.rev !out

let occurrences p g =
  all_matches p g
  |> List.map (fun b -> List.map snd b.nodes |> List.sort compare)
  |> List.sort_uniq compare
