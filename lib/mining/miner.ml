module G = Apex_dfg.Graph
module Op = Apex_dfg.Op

type config = { min_support : int; max_size : int }

let default_config = { min_support = 2; max_size = 5 }

(* the enumeration cap: connected subgraphs visited before mining stops
   with a [Fuel]-degraded census *)
let subgraph_cap = 2_000_000

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

(* Undirected adjacency restricted to minable nodes: compute nodes and
   constants (kernel weights become constant registers, Fig. 2c). *)
let adjacency g =
  let minable op = Op.is_compute op || Op.is_const op in
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

(* Integer shape keys.  An embedding's key lists, for each member in
   ascending id order, the member's op code and then one entry per
   argument: its position in the embedding (>= 0), or -(2k + w + 1) for
   an external source, where k numbers the externals by first use (so
   sharing is captured but the key is position-independent) and w is
   the source's width bit.  The op code fixes the arity, so the key
   parses uniquely: two embeddings share a key iff their induced
   subgraphs agree node for node in sorted order, and then they share
   one canonical pattern. *)
type key = { ints : int array; mutable len : int }

module Shapes = Hashtbl.Make (struct
  type t = key

  let equal a b =
    let rec from i = i = a.len || (a.ints.(i) = b.ints.(i) && from (i + 1)) in
    a.len = b.len && from 0

  let hash k =
    let h = ref k.len in
    for i = 0 to k.len - 1 do
      h := (!h * 31) + k.ints.(i)
    done;
    !h land max_int
end)

(* one group per canonical code; [rep] is the pattern of the last
   embedding visited (last wins: the merged datapaths depend on it) *)
type group = {
  mutable rep : Pattern.t;
  mutable embs : int list list;  (* capped, most recent first *)
  mutable count : int;
}

let canonicalize g sub =
  let induced, _ = G.induced g sub in
  Pattern.of_graph (G.map_ops induced generalize_op)

(* ESU enumeration rooted at [root]: every connected node set of size in
   [2, max_size] containing [root] as its minimum-id member is visited
   exactly once, in a deterministic DFS order.  [emit] receives the node
   set sorted by id; sets extending one another share list tails. *)
let enumerate cfg adj in_sub ~root ~emit =
  let rec insert w = function
    | x :: rest when x < w -> x :: insert w rest
    | l -> w :: l
  in
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
            extend (insert w sub) (size + 1) (rest @ exclusive);
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
  let adj, ok = adjacency g in
  let n = G.length g in
  let nodes = G.nodes g in
  (* per node: interned (generalized) op, result width bit, compute *)
  let op_ids = Hashtbl.create 32 in
  let op_code =
    Array.map
      (fun (nd : G.node) ->
        let op = generalize_op nd.op in
        match Hashtbl.find_opt op_ids op with
        | Some c -> c
        | None ->
            let c = Hashtbl.length op_ids in
            Hashtbl.replace op_ids op c;
            c)
      nodes
  in
  let width_bit =
    Array.map
      (fun (nd : G.node) ->
        match Op.result_width nd.op with Op.Word -> 0 | Op.Bit -> 1)
      nodes
  in
  let compute = Array.map (fun (nd : G.node) -> Op.is_compute nd.op) nodes in
  let groups : (string, group) Hashtbl.t = Hashtbl.create 64 in
  (* embedding lists are capped per pattern; the true occurrence count
     is tracked separately and capped patterns are reported in stats *)
  let max_embeddings = 4000 in
  let enumerated = ref 0 in
  let truncated = ref false in
  (* canonicalization cache: embeddings with the same shape key (the
     common case for repeated stencil structure) share one
     canonicalization and one group, found with a single lookup *)
  let shapes : (Pattern.t * group) Shapes.t = Shapes.create 256 in
  let canon_hits = ref 0 in
  let in_sub = Array.make n false in
  let max_arity =
    Array.fold_left (fun m (nd : G.node) -> max m (Array.length nd.args)) 0 nodes
  in
  let key =
    { ints = Array.make (max 1 cfg.max_size * (1 + max_arity)) 0; len = 0 }
  in
  let push v =
    key.ints.(key.len) <- v;
    key.len <- key.len + 1
  in
  (* embedding position / external number per node id, -1 when unset;
     [externals] lists the numbered ids so they can be reset *)
  let pos = Array.make n (-1) in
  let ext = Array.make n (-1) in
  let externals = Array.make (Array.length key.ints) 0 in
  let encode sorted =
    key.len <- 0;
    let n_ext = ref 0 in
    (* arguments precede their consumers in id order, so an argument in
       the embedding already has its position *)
    let rec members i = function
      | [] -> ()
      | id :: rest ->
          pos.(id) <- i;
          push op_code.(id);
          let args = nodes.(id).args in
          for j = 0 to Array.length args - 1 do
            let a = args.(j) in
            if pos.(a) >= 0 then push pos.(a)
            else begin
              if ext.(a) < 0 then begin
                ext.(a) <- !n_ext;
                externals.(!n_ext) <- a;
                incr n_ext
              end;
              push (-((2 * ext.(a)) + width_bit.(a) + 1))
            end
          done;
          members (i + 1) rest
    in
    members 0 sorted;
    List.iter (fun id -> pos.(id) <- -1) sorted;
    for j = 0 to !n_ext - 1 do
      ext.(externals.(j)) <- -1
    done
  in
  (* one pass: enumerate and record each embedding as it is visited —
     grouping, canonicalization cache, budget; nothing materialized *)
  let emit sorted =
    Guard.tick ();
    incr enumerated;
    if !enumerated > subgraph_cap then raise Budget;
    (* only patterns with >= 1 compute node are interesting *)
    if List.exists (fun i -> compute.(i)) sorted then begin
      encode sorted;
      let p, grp =
        match Shapes.find_opt shapes key with
        | Some shape ->
            incr canon_hits;
            shape
        | None ->
            let p = canonicalize g sorted in
            let grp =
              match Hashtbl.find_opt groups (Pattern.code p) with
              | Some grp -> grp
              | None ->
                  let grp = { rep = p; embs = []; count = 0 } in
                  Hashtbl.replace groups (Pattern.code p) grp;
                  grp
            in
            Shapes.replace shapes
              { ints = Array.sub key.ints 0 key.len; len = key.len }
              (p, grp);
            (p, grp)
      in
      grp.rep <- p;
      if grp.count < max_embeddings then grp.embs <- sorted :: grp.embs;
      grp.count <- grp.count + 1
    end
  in
  let outcome = ref Guard.Outcome.Exact in
  (try
     for root = 0 to n - 1 do
       if ok.(root) then enumerate cfg adj ~root ~emit in_sub
     done
   with
  | Budget ->
      (* the subgraph cap: a [Fuel] truncation *)
      truncated := true;
      outcome := Guard.Outcome.Degraded Guard.Outcome.Fuel
  | Guard.Cancelled _ ->
      (* deadline or cooperative cancel mid-enumeration: everything
         recorded so far is a valid (if partial) pattern census, the
         same best-so-far shape the subgraph cap produces *)
      truncated := true;
      outcome := Guard.Outcome.Degraded Guard.Outcome.Deadline);
  let capped = ref 0 in
  let rejected = ref 0 in
  let found =
    Hashtbl.fold
      (fun _ { rep = p; embs; count } acc ->
        if count > max_embeddings then incr capped;
        let embs = List.sort_uniq (List.compare Int.compare) embs in
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
