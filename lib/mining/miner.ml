module G = Apex_dfg.Graph
module Op = Apex_dfg.Op

type config = {
  min_support : int;
  max_size : int;
  include_consts : bool;
  generalize_consts : bool;
  max_subgraphs : int;
}

let default_config =
  { min_support = 2; max_size = 5; include_consts = true;
    generalize_consts = true; max_subgraphs = 2_000_000 }

(* constant values and LUT tables are configuration-register contents,
   not structure: patterns that differ only in them are one PE shape *)
let generalize_op (op : Op.t) =
  match op with
  | Op.Const _ -> Op.Const 0
  | Op.Bit_const _ -> Op.Bit_const false
  | Op.Lut _ -> Op.Lut 0
  | op -> op

type found = {
  pattern : Pattern.t;
  embeddings : int list list;
  support : int;
}

type stats = {
  enumerated : int;
  truncated : bool;
  capped_patterns : int;
  outcome : Apex_guard.Outcome.t;
}

(* Undirected adjacency restricted to minable nodes. *)
let adjacency cfg g =
  let minable op = Op.is_compute op || (cfg.include_consts && Op.is_const op) in
  let n = G.length g in
  let adj = Array.make n [] in
  let ok = Array.make n false in
  Array.iter (fun (nd : G.node) -> ok.(nd.id) <- minable nd.op) (G.nodes g);
  Array.iter
    (fun (nd : G.node) ->
      if ok.(nd.id) then
        Array.iter
          (fun a ->
            if ok.(a) then begin
              adj.(nd.id) <- a :: adj.(nd.id);
              adj.(a) <- nd.id :: adj.(a)
            end)
          nd.args)
    (G.nodes g);
  (Array.map (List.sort_uniq compare) adj, ok)

exception Budget

module Counter = Apex_telemetry.Counter
module Span = Apex_telemetry.Span
module Guard = Apex_guard

(* Reusable canonical-coding scratch: one buffer and two index tables
   per enumeration instead of fresh allocations for every embedding —
   the position table and key buffer are rebuilt in place, and the
   caller passes the node list already sorted so it is not re-sorted
   both here and for the embedding record. *)
type scratch = {
  buf : Buffer.t;
  pos : (int, int) Hashtbl.t;
  ext : (int, int) Hashtbl.t;
}

let make_scratch () =
  { buf = Buffer.create 128; pos = Hashtbl.create 16; ext = Hashtbl.create 16 }

let shape_key cfg g scratch sorted =
  let { buf; pos; ext } = scratch in
  Buffer.clear buf;
  Hashtbl.reset pos;
  Hashtbl.reset ext;
  List.iteri (fun i id -> Hashtbl.replace pos id i) sorted;
  (* externals are numbered by first use, so sharing is captured but
     the key is position-independent *)
  List.iter
    (fun id ->
      let nd = G.node g id in
      let op = if cfg.generalize_consts then generalize_op nd.op else nd.op in
      Buffer.add_string buf (Op.mnemonic op);
      Buffer.add_char buf '(';
      Array.iter
        (fun a ->
          (match Hashtbl.find_opt pos a with
          | Some p -> Buffer.add_string buf (string_of_int p)
          | None ->
              let k =
                match Hashtbl.find_opt ext a with
                | Some k -> k
                | None ->
                    let k = Hashtbl.length ext in
                    Hashtbl.replace ext a k;
                    k
              in
              Buffer.add_char buf 'x';
              Buffer.add_string buf (string_of_int k);
              (* keep the width in the key *)
              Buffer.add_char buf
                (match Op.result_width (G.node g a).op with
                | Op.Word -> 'w'
                | Op.Bit -> 'b'));
          Buffer.add_char buf ',')
        nd.args;
      Buffer.add_string buf ");")
    sorted;
  Buffer.contents buf

let canonicalize cfg g sub =
  let induced, _ = G.induced g sub in
  let induced =
    if cfg.generalize_consts then G.map_ops induced generalize_op else induced
  in
  Pattern.of_graph induced

(* ESU enumeration rooted at [root]: every connected node set of size in
   [2, max_size] containing [root] as its minimum-id member is visited
   exactly once, in a deterministic DFS order.  [emit] receives the node
   set in construction order (root last). *)
let enumerate cfg adj in_sub ~root ~emit =
  let rec extend sub size ext =
    if size >= 2 then emit sub;
    if size < cfg.max_size then begin
      let rec loop = function
        | [] -> ()
        | w :: rest ->
            (* ESU: the branch containing [w] may further extend with the
               remaining candidates plus the exclusive neighborhood of
               [w] — neighbors > root that are not in, and not adjacent
               to, the current subgraph.  The adjacency exclusion is what
               guarantees each node set is visited exactly once. *)
            let exclusive =
              List.filter
                (fun u ->
                  u > root && (not in_sub.(u))
                  && not (List.exists (fun x -> in_sub.(x)) adj.(u)))
                adj.(w)
            in
            in_sub.(w) <- true;
            extend (w :: sub) (size + 1) (rest @ exclusive);
            in_sub.(w) <- false;
            loop rest
      in
      loop ext
    end
  in
  let ext = List.filter (fun u -> u > root) adj.(root) in
  in_sub.(root) <- true;
  extend [ root ] 1 ext;
  in_sub.(root) <- false

(* ESU enumeration: each connected node set of size in [2, max_size] is
   visited exactly once. *)
let mine cfg g =
  Span.with_ "mining" @@ fun () ->
  Guard.with_phase "mining" @@ fun () ->
  let adj, ok = adjacency cfg g in
  let n = G.length g in
  let groups : (string, Pattern.t * int list list * int) Hashtbl.t =
    Hashtbl.create 64
  in
  (* embedding lists are capped per pattern; the true occurrence count
     is tracked separately and capped patterns are reported in stats *)
  let max_embeddings = 4000 in
  let enumerated = ref 0 in
  let truncated = ref false in
  (* canonicalization cache: embeddings whose induced subgraphs have the
     same shape relative to their sorted node order (the common case for
     repeated stencil structure) share one canonicalization *)
  let canon_cache : (string, Pattern.t) Hashtbl.t = Hashtbl.create 256 in
  let canon_hits = ref 0 in
  let in_sub = Array.make n false in
  let scratch = make_scratch () in
  (* one pass: enumerate and record each embedding as it is visited —
     grouping, canonicalization cache, budget; nothing materialized *)
  let emit sub =
    Guard.tick ();
    incr enumerated;
    if !enumerated > cfg.max_subgraphs then raise Budget;
    (* only patterns with >= 1 compute node are interesting *)
    if List.exists (fun i -> Op.is_compute (G.node g i).op) sub then begin
      let sorted = List.sort compare sub in
      let sk = shape_key cfg g scratch sorted in
      let p =
        match Hashtbl.find_opt canon_cache sk with
        | Some p ->
            incr canon_hits;
            p
        | None ->
            let p = canonicalize cfg g sub in
            Hashtbl.replace canon_cache sk p;
            p
      in
      let key = Pattern.code p in
      let prev, count =
        match Hashtbl.find_opt groups key with
        | Some (_, embs, count) -> (embs, count)
        | None -> ([], 0)
      in
      let prev = if count < max_embeddings then sorted :: prev else prev in
      Hashtbl.replace groups key (p, prev, count + 1)
    end
  in
  let outcome = ref Guard.Outcome.Exact in
  (try
     for root = 0 to n - 1 do
       if ok.(root) then enumerate cfg adj ~root ~emit in_sub
     done
   with
  | Budget ->
      (* the pre-existing enumeration cap: a fuel-shaped truncation *)
      truncated := true;
      outcome := Guard.Outcome.Degraded Guard.Outcome.Fuel
  | Guard.Cancelled msg ->
      (* deadline or cooperative cancel mid-enumeration: everything
         recorded so far is a valid (if partial) pattern census, the
         same best-so-far shape the subgraph cap produces *)
      truncated := true;
      outcome := Guard.Outcome.Degraded (Guard.reason_of_message msg));
  let capped = ref 0 in
  let rejected = ref 0 in
  let found =
    Hashtbl.fold
      (fun _ (p, embs, count) acc ->
        if count > max_embeddings then incr capped;
        let embs = List.sort_uniq compare embs in
        if count >= cfg.min_support then begin
          (* deterministic value distribution (order-insensitive), so
             percentiles do not depend on hash-table iteration order *)
          Counter.observe "mining.embeddings_per_pattern"
            (float_of_int count);
          { pattern = p; embeddings = embs; support = count } :: acc
        end
        else begin
          incr rejected;
          acc
        end)
      groups []
  in
  Counter.incr "mining.runs";
  Counter.add "mining.patterns_grown" (Hashtbl.length groups);
  Counter.add "mining.embeddings_enumerated" !enumerated;
  Counter.add "mining.canon_cache_hits" !canon_hits;
  Counter.add "mining.min_support_rejections" !rejected;
  Counter.add "mining.capped_patterns" !capped;
  if !truncated then Counter.incr "mining.budget_truncations";
  Guard.Outcome.record ~phase:"mining" !outcome;
  let cmp a b =
    match compare b.support a.support with
    | 0 -> (
        match compare (Pattern.size b.pattern) (Pattern.size a.pattern) with
        | 0 -> String.compare (Pattern.code a.pattern) (Pattern.code b.pattern)
        | c -> c)
    | c -> c
  in
  ( List.sort cmp found,
    { enumerated = !enumerated;
      truncated = !truncated;
      capped_patterns = !capped;
      outcome = !outcome } )
