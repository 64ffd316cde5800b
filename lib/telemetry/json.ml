(* Minimal JSON value type with a hand-rolled encoder and parser, so the
   telemetry report needs no opam dependency.  The parser exists for the
   round-trip tests and the `apex trace-check` CI smoke; it accepts
   exactly what the encoder emits plus ordinary interchange JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- encoding --- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> Buffer.add_string buf "null"
  | _ ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.12g" f)

let rec emit buf ~level t =
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> add_escaped buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (level + 1);
          emit buf ~level:(level + 1) item)
        items;
      Buffer.add_char buf '\n';
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (level + 1);
          add_escaped buf k;
          Buffer.add_string buf ": ";
          emit buf ~level:(level + 1) v)
        fields;
      Buffer.add_char buf '\n';
      pad level;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 1024 in
  emit buf ~level:0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let error c msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> error c (Printf.sprintf "expected %c" ch)

let parse_literal c lit value =
  if
    c.pos + String.length lit <= String.length c.src
    && String.sub c.src c.pos (String.length lit) = lit
  then begin
    c.pos <- c.pos + String.length lit;
    value
  end
  else error c ("expected " ^ lit)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> error c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
        | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
        | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then error c "bad \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> error c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* ASCII only; anything else becomes '?' (the encoder never
               emits non-ASCII escapes) *)
            Buffer.add_char buf (if code < 0x80 then Char.chr code else '?');
            go ()
        | _ -> error c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> error c ("bad number " ^ s))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> error c "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((k, v) :: acc)
          | _ -> error c "expected , or } in object"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> error c "expected , or ] in array"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> parse_number c

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage after JSON value"
      else Ok v
  | exception Parse_error msg -> Error msg

let write_file path j =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string j))

(* --- accessors (for tests and trace-check) --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_number_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
