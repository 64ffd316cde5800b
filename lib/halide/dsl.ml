module Op = Apex_dfg.Op
module G = Apex_dfg.Graph

type ctx = {
  builder : G.Builder.t;
  cse : (string, int) Hashtbl.t;  (* structural key -> node id *)
  mutable outputs : (string * int) list;
}

type v = int
type b = int

let create () =
  { builder = G.Builder.create (); cse = Hashtbl.create 64; outputs = [] }

let node c op args =
  let key =
    Op.mnemonic op ^ "("
    ^ String.concat "," (List.map string_of_int (Array.to_list args))
    ^ ")"
  in
  match Hashtbl.find_opt c.cse key with
  | Some id -> id
  | None ->
      let id = G.Builder.add c.builder op args in
      Hashtbl.replace c.cse key id;
      id

let input c name = node c (Op.Input name) [||]

let tap c name ~dx ~dy = input c (Printf.sprintf "%s@%d,%d" name dx dy)

let const c v = node c (Op.Const (v land 0xffff)) [||]

let ( +: ) c a b = node c Op.Add [| a; b |]
let ( -: ) c a b = node c Op.Sub [| a; b |]
let ( *: ) c a b = node c Op.Mul [| a; b |]
let shr c a k = node c Op.Lshr [| a; const c k |]
let ashr' c a k = node c Op.Ashr [| a; const c k |]
let abs' c a = node c Op.Abs [| a |]
let smax' c a b = node c Op.Smax [| a; b |]
let smin' c a b = node c Op.Smin [| a; b |]
let or' c a b = node c Op.Or [| a; b |]

let slt' c a b = node c Op.Slt [| a; b |]
let sgt' c a b = node c Op.Slt [| b; a |]
let ult' c a b = node c Op.Ult [| a; b |]

let select c cond a b = node c Op.Mux [| cond; a; b |]

let clamp c x ~lo ~hi = smin' c (smax' c x (const c lo)) (const c hi)

let mulc c a k = node c Op.Mul [| a; const c k |]

let output c name v =
  c.outputs <- (name, v) :: c.outputs

let finish c =
  List.iter
    (fun (name, v) -> ignore (G.Builder.add1 c.builder (Op.Output name) v))
    (List.rev c.outputs);
  let g = G.Builder.finish c.builder in
  match G.validate g with
  | Ok () -> g
  | Error m -> failwith ("Dsl.finish: invalid graph: " ^ m)
