module Spec = Apex_peak.Spec
module Cover = Apex_mapper.Cover

type t = {
  pe_words : ((int * int) * int list) list;
  sb_words : ((int * int) * int list) list;
  total_bits : int;
}

let pack (spec : Spec.t) (instr : Spec.instr) =
  let bits = ref [] in
  List.iter
    (fun (f : Spec.field) ->
      let v = Option.value ~default:0 (List.assoc_opt f.name instr) in
      for i = 0 to f.bits - 1 do
        bits := ((v lsr i) land 1) :: !bits
      done)
    spec.fields;
  let bits = Array.of_list (List.rev !bits) in
  let n_words = (Array.length bits + 31) / 32 in
  List.init n_words (fun w ->
      let word = ref 0 in
      for i = 0 to 31 do
        let idx = (w * 32) + i in
        if idx < Array.length bits && bits.(idx) = 1 then
          word := !word lor (1 lsl i)
      done;
      !word)

let unpack (spec : Spec.t) words =
  let words = Array.of_list words in
  let bit idx =
    let w = idx / 32 and i = idx mod 32 in
    if w < Array.length words then (words.(w) lsr i) land 1 else 0
  in
  let pos = ref 0 in
  List.map
    (fun (f : Spec.field) ->
      let v = ref 0 in
      for i = 0 to f.bits - 1 do
        if bit (!pos + i) = 1 then v := !v lor (1 lsl i)
      done;
      pos := !pos + f.bits;
      (f.name, !v))
    spec.fields

(* switch-box config: each hop leaving the tile as a 2-bit
   out-direction code.  No in-direction, track or connection-box port
   is encoded, so these words cannot be decoded back into a route. *)
let dir_code (ax, ay) (bx, by) =
  if bx = ax + 1 then 0 (* east *)
  else if bx = ax - 1 then 1 (* west *)
  else if by = ay + 1 then 2 (* south *)
  else 3 (* north *)

let generate (spec : Spec.t) (p : Place.t) (m : Cover.t) (r : Route.t) =
  let pe_words =
    Array.to_list
      (Array.mapi
         (fun idx (inst : Cover.instance) ->
           let instr = Spec.encode spec inst.config in
           (p.loc.(idx), pack spec instr))
         m.instances)
  in
  (* group hops by the tile they leave *)
  let tbl : (int * int, int list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (n : Route.net) ->
      List.iter
        (fun (a, b) ->
          let code = dir_code a b in
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl a) in
          Hashtbl.replace tbl a (code :: prev))
        n.tree)
    r.nets;
  let sb_words =
    Hashtbl.fold
      (fun tile codes acc ->
        (* pack 2-bit direction codes, 16 per word *)
        let codes = List.rev codes in
        let n_words = (List.length codes + 15) / 16 in
        let words =
          List.init n_words (fun w ->
              List.fold_left
                (fun (word, i) code ->
                  if i >= w * 16 && i < (w + 1) * 16 then
                    (word lor (code lsl (2 * (i mod 16))), i + 1)
                  else (word, i + 1))
                (0, 0) codes
              |> fst)
        in
        (tile, words) :: acc)
      tbl []
    |> List.sort compare
  in
  let total_bits =
    32
    * (List.fold_left (fun acc (_, ws) -> acc + List.length ws) 0 pe_words
      + List.fold_left (fun acc (_, ws) -> acc + List.length ws) 0 sb_words)
  in
  { pe_words; sb_words; total_bits }

let instr_at t spec tile =
  Option.map (unpack spec) (List.assoc_opt tile t.pe_words)
