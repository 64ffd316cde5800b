type ranked = {
  pattern : Pattern.t;
  support : int;
  mis_size : int;
}

let order a b =
  (* MIS first; then larger patterns; then fewer external inputs (an
     internal constant register beats a PE input, Section 2.3); then
     the canonical code for determinism *)
  match compare b.mis_size a.mis_size with
  | 0 -> (
      match compare (Pattern.size b.pattern) (Pattern.size a.pattern) with
      | 0 -> (
          match
            compare (Pattern.n_inputs a.pattern) (Pattern.n_inputs b.pattern)
          with
          | 0 -> String.compare (Pattern.code a.pattern) (Pattern.code b.pattern)
          | c -> c)
      | c -> c)
  | c -> c

(* constant nodes are configuration registers replicated into every PE,
   not contended application resources: two occurrences sharing only a
   constant can both be accelerated, so MIS ignores constant nodes *)
let strip_consts g embeddings =
  List.map
    (List.filter (fun i ->
         Apex_dfg.Op.is_compute (Apex_dfg.Graph.node g i).op))
    embeddings

(* an occurrence fed by an external constant cannot be accelerated by a
   PE implementing this pattern: constants do not travel through the
   interconnect (the pattern variant with the constant inside covers
   those occurrences instead) *)
let usable_embeddings g embeddings =
  let module G = Apex_dfg.Graph in
  let module Op = Apex_dfg.Op in
  List.filter
    (fun emb ->
      List.for_all
        (fun i ->
          Array.for_all
            (fun a -> List.mem a emb || not (Op.is_const (G.node g a).op))
            (G.node g i).args)
        emb)
    embeddings

let analyze ?(config = Miner.default_config) g =
  Apex_telemetry.Span.with_ "analysis" @@ fun () ->
  let found, stats = Miner.mine config g in
  let ranked =
    Apex_telemetry.Span.with_ "mis" @@ fun () ->
    List.filter_map
      (fun (f : Miner.found) ->
        let usable = usable_embeddings g f.embeddings in
        let mis_size = Mis.mis_size (strip_consts g usable) in
        if mis_size >= config.min_support then
          Some { pattern = f.pattern; support = List.length usable; mis_size }
        else None)
      found
  in
  (List.sort order ranked, stats)

let pp_ranked ppf r =
  Format.fprintf ppf "mis=%d support=%d size=%d inputs=%d  %s" r.mis_size
    r.support (Pattern.size r.pattern) (Pattern.n_inputs r.pattern)
    (Pattern.code r.pattern)
