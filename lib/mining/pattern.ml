module G = Apex_dfg.Graph
module Op = Apex_dfg.Op

type t = { graph : G.t; code : string; size : int; n_inputs : int }

(* Canonicalization: the code is the lexicographically smallest node
   listing over all topological orderings of the internal (compute and
   constant) nodes.  External inputs are not part of the ordering; they
   are named by first use in the emitted code, which makes the code
   independent of input identity while still distinguishing patterns
   that share an external source (add(x,x) vs add(x,y)).  For
   commutative operations both argument orders are explored.  Patterns
   are small (<= ~8 internal nodes) so the branch-and-bound search is
   cheap. *)

type state = {
  g : G.t;
  internal : int array;     (* internal node ids, ascending *)
  preds : int array array;  (* per node id: its internal arguments *)
  mnemonic : string array;  (* per internal node id *)
}

let is_internal op = Op.is_compute op || Op.is_const op

let build_state g =
  let nodes = G.nodes g in
  let internal_set = Array.map (fun (nd : G.node) -> is_internal nd.op) nodes in
  let internal =
    Array.of_list
      (List.filter (fun i -> internal_set.(i)) (List.init (G.length g) Fun.id))
  in
  let preds =
    Array.map
      (fun (nd : G.node) ->
        Array.of_list
          (List.filter (fun a -> internal_set.(a)) (Array.to_list nd.args)))
      nodes
  in
  let mnemonic =
    Array.map
      (fun (nd : G.node) ->
        if internal_set.(nd.id) then Op.mnemonic nd.op else "")
      nodes
  in
  { g; internal; preds; mnemonic }

(* The search extends the partial code in one buffer and truncates it
   on backtrack.  Placed internal nodes are named "n<position>" through
   [pos]; external sources "i<k>"/"b<k>" in first-use order through
   [name] (-1 = unset).  Both are undone on backtrack, so the inner loop
   allocates nothing but the placement list. *)
let canonical_code g =
  let st = build_state g in
  let n = Array.length st.internal in
  if n = 0 then ("", [])
  else begin
    let len = G.length g in
    let pos = Array.make len (-1) in
    let name = Array.make len (-1) in
    let next = ref 0 in
    let buf = Buffer.create 64 in
    let best = ref None in
    let best_order = ref [] in
    let is_word a = Op.result_width (G.node g a).op = Op.Word in
    let add_int k =
      if k < 10 then Buffer.add_char buf (Char.chr (48 + k))
      else Buffer.add_string buf (string_of_int k)
    in
    let add_label a =
      if pos.(a) >= 0 then begin
        Buffer.add_char buf 'n';
        add_int pos.(a)
      end
      else begin
        if name.(a) < 0 then begin
          name.(a) <- !next;
          incr next
        end;
        Buffer.add_char buf (if is_word a then 'i' else 'b');
        add_int name.(a)
      end
    in
    (* [swap] emits the two arguments of a binary node in reverse *)
    let add_token id args swap =
      Buffer.add_string buf st.mnemonic.(id);
      Buffer.add_char buf '(';
      for j = 0 to Array.length args - 1 do
        if j > 0 then Buffer.add_char buf ',';
        add_label args.(if swap then 1 - j else j)
      done;
      Buffer.add_char buf ')'
    in
    let unname args first =
      for j = 0 to Array.length args - 1 do
        let a = args.(j) in
        if pos.(a) < 0 && name.(a) >= first then name.(a) <- -1
      done;
      next := first
    in
    (* the two orders of a commutative (a, b), a <> b, yield the same
       token iff both are unnamed externals of one width *)
    let unnamed a = pos.(a) < 0 && name.(a) < 0 in
    let same_token a b = unnamed a && unnamed b && is_word a = is_word b in
    (* the buffer is no greater than the matching prefix of the best
       code: prune when strictly greater *)
    let better () =
      match !best with
      | None -> true
      | Some b ->
          let sl = Buffer.length buf and bl = String.length b in
          let m = min sl bl in
          let rec cmp i =
            if i = m then sl <= bl
            else
              let c = Char.compare (Buffer.nth buf i) b.[i] in
              c < 0 || (c = 0 && cmp (i + 1))
          in
          cmp 0
    in
    let rec ready ps i =
      i = Array.length ps || (pos.(ps.(i)) >= 0 && ready ps (i + 1))
    in
    let rec go placed count =
      if count = n then begin
        let code = Buffer.contents buf in
        match !best with
        | Some b when String.compare b code <= 0 -> ()
        | _ ->
            best := Some code;
            best_order := List.rev placed
      end
      else
        for i = 0 to n - 1 do
          let id = st.internal.(i) in
          if pos.(id) < 0 && ready st.preds.(id) 0 then begin
            let nd = G.node g id in
            let args = nd.args in
            (* for commutative binary operations both argument orders
               are explored, unless they yield the same token.  The
               skipped order would name the two inputs the other way
               round, so swapping such arguments can change the code of
               an isomorphic pattern (ROADMAP item 9); the rule is kept
               because the mined results depend on it. *)
            let both =
              Array.length args = 2 && Op.is_commutative nd.op
              && args.(0) <> args.(1)
              && not (same_token args.(0) args.(1))
            in
            place placed count id args false;
            if both then place placed count id args true
          end
        done
    and place placed count id args swap =
      let first = !next in
      let mark = Buffer.length buf in
      if count > 0 then Buffer.add_char buf ';';
      add_token id args swap;
      if better () then begin
        pos.(id) <- count;
        go (id :: placed) (count + 1);
        pos.(id) <- -1
      end;
      Buffer.truncate buf mark;
      unname args first
    in
    go [] 0;
    (Option.get !best, !best_order)
  end

(* Rebuild a representative graph in canonical order: external inputs in
   first-use order, then internal nodes, then Output markers on sinks. *)
let rebuild g order =
  let b = G.Builder.create () in
  let remap = Hashtbl.create 16 in
  let n_inputs = ref 0 in
  let input_of arg =
    match Hashtbl.find_opt remap arg with
    | Some a -> a
    | None ->
        let w = Op.result_width (G.node g arg).op in
        let a =
          match w with
          | Op.Word ->
              incr n_inputs;
              G.Builder.add0 b (Op.Input ("x" ^ string_of_int !n_inputs))
          | Op.Bit ->
              incr n_inputs;
              G.Builder.add0 b (Op.Bit_input ("p" ^ string_of_int !n_inputs))
        in
        Hashtbl.replace remap arg a;
        a
  in
  (* pre-scan in canonical order so input numbering follows first use *)
  List.iter
    (fun id ->
      let node = G.node g id in
      let args =
        Array.map
          (fun a ->
            match Hashtbl.find_opt remap a with
            | Some a' -> a'
            | None -> input_of a)
          node.args
      in
      let id' = G.Builder.add b node.op args in
      Hashtbl.replace remap id id')
    order;
  (* Output markers on internal sinks (no internal successor) *)
  let order_set = Hashtbl.create 16 in
  List.iter (fun i -> Hashtbl.replace order_set i ()) order;
  let succs = G.succs g in
  let n_out = ref 0 in
  List.iter
    (fun id ->
      let node = G.node g id in
      if Op.is_compute node.op then begin
        let internal_succ =
          List.exists (fun s -> Hashtbl.mem order_set s) succs.(id)
        in
        if not internal_succ then begin
          incr n_out;
          let name = "y" ^ string_of_int !n_out in
          let id' = Hashtbl.find remap id in
          match Op.result_width node.op with
          | Op.Word -> ignore (G.Builder.add1 b (Op.Output name) id')
          | Op.Bit -> ignore (G.Builder.add1 b (Op.Bit_output name) id')
        end
      end)
    order;
  (G.Builder.finish b, !n_inputs)

let of_graph g =
  let code, order = canonical_code g in
  let graph, n_inputs = rebuild g order in
  let size = List.length (List.filter (fun i -> Op.is_compute (G.node g i).op) order) in
  { graph; code; size; n_inputs }

let graph p = p.graph
let code p = p.code
let size p = p.size
let n_inputs p = p.n_inputs
let equal a b = String.equal a.code b.code
let compare a b = String.compare a.code b.code
let pp ppf p = Format.fprintf ppf "@[<v>pattern %s@,%a@]" p.code G.pp p.graph
