(* Tests for subgraph mining, canonical patterns, matching and MIS. *)

module Op = Apex_dfg.Op
module G = Apex_dfg.Graph
module Pattern = Apex_mining.Pattern
module Miner = Apex_mining.Miner
module Mis = Apex_mining.Mis
module Match = Apex_mining.Match
module Analysis = Apex_mining.Analysis

let check = Alcotest.check
let int = Alcotest.int

let conv4 () =
  let b = G.Builder.create () in
  let i = Array.init 4 (fun k -> G.Builder.add0 b (Op.Input (Printf.sprintf "i%d" k))) in
  let w = Array.init 4 (fun k -> G.Builder.add0 b (Op.Input (Printf.sprintf "w%d" k))) in
  let c = G.Builder.add0 b (Op.Input "c") in
  let m = Array.init 4 (fun k -> G.Builder.add2 b Op.Mul i.(k) w.(k)) in
  let s1 = G.Builder.add2 b Op.Add m.(0) m.(1) in
  let s2 = G.Builder.add2 b Op.Add s1 m.(2) in
  let s3 = G.Builder.add2 b Op.Add s2 m.(3) in
  let s4 = G.Builder.add2 b Op.Add s3 c in
  ignore (G.Builder.add1 b (Op.Output "out") s4);
  G.Builder.finish b

(* mul feeding add: Fig. 3b *)
let mul_add_pattern () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let z = G.Builder.add0 b (Op.Input "z") in
  let m = G.Builder.add2 b Op.Mul x y in
  let a = G.Builder.add2 b Op.Add m z in
  ignore (G.Builder.add1 b (Op.Output "o") a);
  Pattern.of_graph (G.Builder.finish b)

(* add feeding add: Fig. 3d *)
let add_add_pattern () =
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let z = G.Builder.add0 b (Op.Input "z") in
  let a1 = G.Builder.add2 b Op.Add x y in
  let a2 = G.Builder.add2 b Op.Add a1 z in
  ignore (G.Builder.add1 b (Op.Output "o") a2);
  Pattern.of_graph (G.Builder.finish b)

(* --- canonical codes --- *)

let test_canonical_iso () =
  (* same pattern built with different construction orders and with
     commutative arguments swapped must canonicalize identically *)
  let p1 = mul_add_pattern () in
  let p2 =
    let b = G.Builder.create () in
    let z = G.Builder.add0 b (Op.Input "qq") in
    let y = G.Builder.add0 b (Op.Input "rr") in
    let x = G.Builder.add0 b (Op.Input "ss") in
    let m = G.Builder.add2 b Op.Mul y x in
    let a = G.Builder.add2 b Op.Add z m in
    ignore (G.Builder.add1 b (Op.Output "o") a);
    Pattern.of_graph (G.Builder.finish b)
  in
  Alcotest.(check string) "codes equal" (Pattern.code p1) (Pattern.code p2)

let test_canonical_distinguishes_sharing () =
  let make shared =
    let b = G.Builder.create () in
    let x = G.Builder.add0 b (Op.Input "x") in
    let y = if shared then x else G.Builder.add0 b (Op.Input "y") in
    let m = G.Builder.add2 b Op.Mul x y in
    ignore (G.Builder.add1 b (Op.Output "o") m);
    Pattern.of_graph (G.Builder.finish b)
  in
  Alcotest.(check bool) "square /= mul" false
    (String.equal (Pattern.code (make true)) (Pattern.code (make false)))

let test_canonical_noncommutative () =
  let make swap =
    let b = G.Builder.create () in
    let x = G.Builder.add0 b (Op.Input "x") in
    let y = G.Builder.add0 b (Op.Input "y") in
    let s = G.Builder.add2 b Op.Shl x y in
    let t = G.Builder.add2 b Op.Sub (if swap then y else x) s in
    ignore (G.Builder.add1 b (Op.Output "o") t);
    Pattern.of_graph (G.Builder.finish b)
  in
  (* sub(x, x<<y) vs sub(y, x<<y): different patterns *)
  Alcotest.(check bool) "distinct" false
    (String.equal (Pattern.code (make false)) (Pattern.code (make true)))

let test_pattern_size_inputs () =
  let p = mul_add_pattern () in
  check int "size" 2 (Pattern.size p);
  check int "inputs" 3 (Pattern.n_inputs p)

(* --- mining on the Fig. 3 convolution --- *)

let mine_conv () =
  let cfg = { Miner.min_support = 2; max_size = 3 } in
  Miner.mine cfg (conv4 ())

let find_pattern found p =
  List.find_opt
    (fun (f : Miner.found) -> String.equal (Pattern.code f.pattern) (Pattern.code p))
    found

let test_mine_mul_add () =
  let found, _ = mine_conv () in
  match find_pattern found (mul_add_pattern ()) with
  | None -> Alcotest.fail "mul+add pattern not mined"
  | Some f -> check int "mul+add support (Fig. 3b)" 4 f.support

let test_mine_add_add () =
  let found, _ = mine_conv () in
  match find_pattern found (add_add_pattern ()) with
  | None -> Alcotest.fail "add+add pattern not mined"
  | Some f -> check int "add+add support (Fig. 3d)" 3 f.support

let test_mine_stats () =
  let _, stats = mine_conv () in
  Alcotest.(check bool) "not truncated" false stats.truncated;
  Alcotest.(check bool) "enumerated something" true (stats.enumerated > 10)

let test_min_support_filters () =
  let cfg = { Miner.min_support = 5; max_size = 3 } in
  let found, _ = Miner.mine cfg (conv4 ()) in
  List.iter
    (fun (f : Miner.found) ->
      Alcotest.(check bool) "support >= 5" true (f.support >= 5))
    found

let test_embeddings_are_occurrences () =
  (* miner embeddings must agree with the independent matcher *)
  let found, _ = mine_conv () in
  List.iter
    (fun (f : Miner.found) ->
      let occs = Match.occurrences f.pattern (conv4 ()) in
      let embs = List.sort compare f.embeddings in
      if not (embs = occs) then
        Alcotest.failf "mismatch for %s: miner %d matcher %d"
          (Pattern.code f.pattern) (List.length embs) (List.length occs))
    found

(* Golden mining census: every mined pattern (code, size, inputs,
   representative graph), its embeddings and support, and the stats,
   for the nine evaluated apps after optimization at max_size 4 and for
   three of them at max_size 5.  The digest was recorded before the
   miner's shape keys became integer arrays; any change to the miner
   must reproduce it.  It must also hold at every pool width, with the
   mining counters identical to serial mining. *)
let golden_mining_digest = "4de4d85e2492f21d10eca3a14c9251e2"

let test_golden_mining () =
  let opt g = (Apex_analysis.Opt.run g).Apex_analysis.Opt.graph in
  let runs =
    List.map
      (fun (a : Apex_halide.Apps.t) -> (a.name, 4, opt a.graph))
      (Apex_halide.Apps.evaluated ())
    @ List.map
        (fun n -> (n, 5, opt (Apex_halide.Apps.by_name n).graph))
        [ "gaussian"; "unsharp"; "laplacian" ]
  in
  let census (name, max_size, g) =
    let found, (stats : Miner.stats) =
      Miner.mine { Miner.default_config with max_size } g
    in
    let rows =
      List.map
        (fun (f : Miner.found) ->
          ( Pattern.code f.pattern, Pattern.size f.pattern,
            Pattern.n_inputs f.pattern, G.nodes (Pattern.graph f.pattern),
            f.embeddings, f.support ))
        found
    in
    Marshal.to_string (name, max_size, rows, stats) [ Marshal.No_sharing ]
  in
  let mine_with jobs =
    Apex_exec.Pool.set_jobs jobs;
    Fun.protect ~finally:(fun () -> Apex_exec.Pool.set_jobs 1) @@ fun () ->
    Apex_telemetry.Registry.enable ();
    Apex_telemetry.Registry.reset ();
    let digest =
      Digest.to_hex (Digest.string (String.concat "" (List.map census runs)))
    in
    let counters =
      List.filter
        (fun (k, _) -> String.starts_with ~prefix:"mining." k)
        (Apex_telemetry.Registry.snapshot ()).counters
    in
    Apex_telemetry.Registry.disable ();
    Apex_telemetry.Registry.reset ();
    (digest, counters)
  in
  let digest, counters = mine_with 1 in
  Alcotest.(check string) "golden census" golden_mining_digest digest;
  List.iter
    (fun jobs ->
      if mine_with jobs <> (digest, counters) then
        Alcotest.failf "jobs=%d diverges from serial mining" jobs)
    [ 2; 4 ]

(* --- MIS analysis (Fig. 4) --- *)

let test_mis_add_add () =
  (* the add->add chain pattern overlaps heavily; in the conv graph the
     three occurrences form a path in the overlap graph, so MIS = 2 *)
  let found, _ = mine_conv () in
  match find_pattern found (add_add_pattern ()) with
  | None -> Alcotest.fail "pattern missing"
  | Some f -> check int "MIS size (Fig. 4)" 2 (Mis.mis_size f.embeddings)

let test_mis_disjoint () =
  let embs = [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  check int "no overlaps" 3 (Mis.mis_size embs)

let test_mis_all_overlap () =
  let embs = [ [ 1; 2 ]; [ 2; 3 ]; [ 1; 3 ] ] in
  check int "triangle" 1 (Mis.mis_size embs)

let prop_first_fit_independent =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 12 in
      let* seed = int in
      return (n, seed))
  in
  QCheck.Test.make ~name:"first-fit MIS is independent and maximal" ~count:200
    (QCheck.make gen) (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let embs =
        List.init n (fun _ ->
            List.init (1 + Random.State.int st 4) (fun _ -> Random.State.int st 12)
            |> List.sort_uniq compare)
      in
      let s = Mis.first_fit embs in
      let overlaps i j =
        List.exists (fun v -> List.mem v (List.nth embs j)) (List.nth embs i)
      in
      let independent =
        List.for_all (fun i -> List.for_all (fun j -> i = j || not (overlaps i j)) s) s
      in
      (* maximality: every occurrence outside s overlaps one inside s *)
      let maximal =
        List.for_all
          (fun v -> List.mem v s || List.exists (overlaps v) s)
          (List.init n Fun.id)
      in
      independent && maximal && Mis.mis_size embs = List.length s)

(* --- analysis (ranking) --- *)

let test_analysis_ranked_by_mis () =
  let ranked, _ = Analysis.analyze (conv4 ()) in
  let rec decreasing = function
    | a :: (b :: _ as rest) ->
        a.Analysis.mis_size >= b.Analysis.mis_size && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by MIS" true (decreasing ranked);
  Alcotest.(check bool) "nonempty" true (ranked <> [])

(* --- matching --- *)

let test_match_occurrences_count () =
  let occs = Match.occurrences (mul_add_pattern ()) (conv4 ()) in
  check int "mul+add occurrences" 4 (List.length occs)

let test_match_respects_ports () =
  (* shl(x, y) should not match shl(y, x): build a graph with one shl *)
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let s = G.Builder.add2 b Op.Shl x y in
  let t = G.Builder.add2 b Op.Sub s x in
  ignore (G.Builder.add1 b (Op.Output "o") t);
  let g = G.Builder.finish b in
  (* pattern: sub(shl(a,b), b) — requires arg1 of sub = arg1 of shl;
     in g, arg1 of sub is x = arg0 of shl, so no match *)
  let pb = G.Builder.create () in
  let a = G.Builder.add0 pb (Op.Input "a") in
  let c = G.Builder.add0 pb (Op.Input "b") in
  let s' = G.Builder.add2 pb Op.Shl a c in
  let t' = G.Builder.add2 pb Op.Sub s' c in
  ignore (G.Builder.add1 pb (Op.Output "o") t');
  let p = Pattern.of_graph (G.Builder.finish pb) in
  check int "no port-violating match" 0 (List.length (Match.occurrences p g));
  (* the consistent pattern sub(shl(a,b), a) matches once *)
  let pb2 = G.Builder.create () in
  let a2 = G.Builder.add0 pb2 (Op.Input "a") in
  let c2 = G.Builder.add0 pb2 (Op.Input "b") in
  let s2 = G.Builder.add2 pb2 Op.Shl a2 c2 in
  let t2 = G.Builder.add2 pb2 Op.Sub s2 a2 in
  ignore (G.Builder.add1 pb2 (Op.Output "o") t2);
  let p2 = Pattern.of_graph (G.Builder.finish pb2) in
  check int "consistent match" 1 (List.length (Match.occurrences p2 g))

let test_match_commutative_swap () =
  (* pattern add(mul(a,b), c) must match graph add(c, mul(a,b)) *)
  let b = G.Builder.create () in
  let x = G.Builder.add0 b (Op.Input "x") in
  let y = G.Builder.add0 b (Op.Input "y") in
  let z = G.Builder.add0 b (Op.Input "z") in
  let m = G.Builder.add2 b Op.Mul x y in
  let a = G.Builder.add2 b Op.Add z m in
  ignore (G.Builder.add1 b (Op.Output "o") a);
  let g = G.Builder.finish b in
  check int "commutative match" 1
    (List.length (Match.occurrences (mul_add_pattern ()) g))

(* brute-force oracle: enumerate ALL connected subsets of minable nodes
   up to size k by subset enumeration, and compare against the ESU
   miner's embedding lists *)
let brute_force_embeddings g max_size =
  let module Op = Apex_dfg.Op in
  let minable i = Op.is_compute (G.node g i).op || Op.is_const (G.node g i).op in
  let n = G.length g in
  let nodes = List.filter minable (List.init n Fun.id) in
  let adj = Hashtbl.create 16 in
  List.iter
    (fun i ->
      Array.iter
        (fun a ->
          if minable a then begin
            Hashtbl.add adj i a;
            Hashtbl.add adj a i
          end)
        (G.node g i).args)
    nodes;
  let connected set =
    match set with
    | [] -> false
    | seed :: _ ->
        let visited = Hashtbl.create 8 in
        let rec dfs v =
          if not (Hashtbl.mem visited v) then begin
            Hashtbl.replace visited v ();
            List.iter (fun u -> if List.mem u set then dfs u) (Hashtbl.find_all adj v)
          end
        in
        dfs seed;
        List.for_all (Hashtbl.mem visited) set
  in
  (* all subsets of size 2..max_size *)
  let rec subsets k pool =
    if k = 0 then [ [] ]
    else
      match pool with
      | [] -> []
      | x :: rest ->
          List.map (fun s -> x :: s) (subsets (k - 1) rest) @ subsets k rest
  in
  List.concat_map (fun k -> subsets k nodes) [ 2; 3 ]
  |> List.filter connected
  |> List.filter (fun s -> List.exists (fun i -> Op.is_compute (G.node g i).op) s)
  |> List.map (List.sort compare)
  |> List.filter (fun s -> List.length s <= max_size)
  |> List.sort compare

let prop_miner_matches_brute_force =
  QCheck.Test.make ~name:"ESU enumerates exactly the connected subgraphs"
    ~count:100 QCheck.int (fun seed ->
      let g = Dags.random (Random.State.make [| seed |]) in
      let cfg = { Miner.min_support = 1; max_size = 3 } in
      let mined, _ = Miner.mine cfg g in
      let mined_sets =
        List.concat_map (fun (f : Miner.found) -> f.embeddings) mined
        |> List.sort compare
      in
      mined_sets = brute_force_embeddings g 3)

(* the same DAG under a random topological renumbering (argument order
   is kept: see ROADMAP on commutative swaps) *)
let renumber st g =
  let nodes = G.nodes g in
  let n = Array.length nodes in
  let remap = Array.make n (-1) in
  let b = G.Builder.create () in
  let ready i = remap.(i) < 0 && Array.for_all (fun a -> remap.(a) >= 0) nodes.(i).args in
  for _ = 1 to n do
    let candidates = List.filter ready (List.init n Fun.id) in
    let i = List.nth candidates (Random.State.int st (List.length candidates)) in
    remap.(i) <- G.Builder.add b nodes.(i).op (Array.map (fun a -> remap.(a)) nodes.(i).args)
  done;
  G.Builder.finish b

let prop_code_invariant =
  QCheck.Test.make ~name:"canonical code is invariant under renumbering"
    ~count:200 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = Dags.random st in
      let code g = Pattern.code (Pattern.of_graph g) in
      code g = code (renumber st g))

let prop_induced_rejects_bad_ids =
  QCheck.Test.make ~name:"induced names an out-of-range or repeated id"
    ~count:100 QCheck.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = Dags.random st in
      let n = G.length g in
      let ids = List.filter (fun _ -> Random.State.bool st) (List.init n Fun.id) in
      let bad =
        match Random.State.int st 3 with
        | 0 -> n + Random.State.int st 5
        | 1 -> -1 - Random.State.int st 5
        | _ -> Random.State.int st n
      in
      let ids = if List.mem bad ids then bad :: ids else bad :: bad :: ids in
      match G.induced g ids with
      | _ -> false
      | exception Invalid_argument m ->
          let needle = Printf.sprintf "id %d " bad in
          let rec has i =
            i + String.length needle <= String.length m
            && (String.sub m i (String.length needle) = needle || has (i + 1))
          in
          has 0)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_first_fit_independent; prop_miner_matches_brute_force;
      prop_code_invariant; prop_induced_rejects_bad_ids ]

let () =
  Alcotest.run "mining"
    [ ( "pattern",
        [ Alcotest.test_case "isomorphic graphs, equal codes" `Quick test_canonical_iso;
          Alcotest.test_case "input sharing distinguished" `Quick
            test_canonical_distinguishes_sharing;
          Alcotest.test_case "non-commutative ports" `Quick test_canonical_noncommutative;
          Alcotest.test_case "size and inputs" `Quick test_pattern_size_inputs ] );
      ( "miner",
        [ Alcotest.test_case "Fig. 3b: mul+add x4" `Quick test_mine_mul_add;
          Alcotest.test_case "Fig. 3d: add+add x3" `Quick test_mine_add_add;
          Alcotest.test_case "stats" `Quick test_mine_stats;
          Alcotest.test_case "min support filters" `Quick test_min_support_filters;
          Alcotest.test_case "embeddings agree with matcher" `Quick
            test_embeddings_are_occurrences;
          Alcotest.test_case "golden census, any width" `Quick
            test_golden_mining ] );
      ( "mis",
        [ Alcotest.test_case "Fig. 4: overlapping chain" `Quick test_mis_add_add;
          Alcotest.test_case "disjoint" `Quick test_mis_disjoint;
          Alcotest.test_case "triangle" `Quick test_mis_all_overlap ] );
      ( "analysis",
        [ Alcotest.test_case "ranked by MIS" `Quick test_analysis_ranked_by_mis ] );
      ( "match",
        [ Alcotest.test_case "occurrence count" `Quick test_match_occurrences_count;
          Alcotest.test_case "port discipline" `Quick test_match_respects_ports;
          Alcotest.test_case "commutative swap" `Quick test_match_commutative_swap ] );
      ("properties", props) ]
