module Json = Apex_telemetry.Json

let schema_version = "apex.serve/1"

let max_frame_bytes = 16 * 1024 * 1024

(* --- framing --- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try
        Apex_guard.Retry.eintr (fun () -> Unix.write_substring fd s off len)
      with Unix.Unix_error (e, _, _) ->
        raise (Sys_error ("serve: write: " ^ Unix.error_message e))
    in
    write_all fd s (off + n) (len - n)
  end

let write_frame fd payload =
  let msg = string_of_int (String.length payload) ^ "\n" ^ payload in
  write_all fd msg 0 (String.length msg)

let read_byte fd =
  let b = Bytes.create 1 in
  match Apex_guard.Retry.eintr (fun () -> Unix.read fd b 0 1) with
  | 0 -> None
  | _ -> Some (Bytes.get b 0)
  | exception Unix.Unix_error (e, _, _) ->
      raise (Sys_error ("serve: read: " ^ Unix.error_message e))

(* the length prefix is tiny, so byte-at-a-time reading costs nothing
   and avoids buffering state between frames *)
let read_length fd =
  let rec go acc n_digits =
    match read_byte fd with
    | None ->
        if n_digits = 0 then None
        else raise (Sys_error "serve: EOF inside a frame length")
    | Some '\n' when n_digits > 0 -> Some acc
    | Some ('0' .. '9' as c) ->
        if n_digits > 10 then raise (Sys_error "serve: frame length too long");
        go ((acc * 10) + (Char.code c - Char.code '0')) (n_digits + 1)
    | Some c ->
        raise
          (Sys_error (Printf.sprintf "serve: bad frame length byte %C" c))
  in
  go 0 0

let read_frame fd =
  match read_length fd with
  | None -> None
  | Some len ->
      if len > max_frame_bytes then
        raise (Sys_error (Printf.sprintf "serve: frame of %d bytes exceeds the %d limit" len max_frame_bytes));
      let buf = Bytes.create len in
      let rec fill off =
        if off < len then
          match Apex_guard.Retry.eintr (fun () -> Unix.read fd buf off (len - off)) with
          | 0 -> raise (Sys_error "serve: EOF inside a frame payload")
          | n -> fill (off + n)
          | exception Unix.Unix_error (e, _, _) ->
              raise (Sys_error ("serve: read: " ^ Unix.error_message e))
      in
      fill 0;
      Some (Bytes.unsafe_to_string buf)

(* --- messages --- *)

type request = {
  tenant : string;
  job : Apex.Jobs.t;
  deadline_s : float option;
}

type error = { code : int; kind : string; message : string }

type response = Ok of Apex_telemetry.Json.t | Error of error

let max_tenant_len = 64

let validate_tenant t =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '-' -> true
    | _ -> false
  in
  if t = "" then Result.Error "tenant name is empty"
  else if String.length t > max_tenant_len then
    Result.Error
      (Printf.sprintf "tenant name exceeds %d bytes: %S" max_tenant_len t)
  else if not (String.for_all ok_char t) then
    Result.Error
      (Printf.sprintf
         "tenant name %S: only letters, digits, '_' and '-' are allowed" t)
  else Result.Ok ()

let request_to_json r =
  Json.Obj
    (( [ ("schema", Json.String schema_version);
         ("tenant", Json.String r.tenant);
         ("job", Apex.Jobs.to_json r.job) ]
     @
     match r.deadline_s with
     | None -> []
     | Some s -> [ ("deadline_s", Json.Float s) ] ))

let invalid message = { code = 2; kind = "invalid-argument"; message }

let request_of_json j =
  match Json.member "schema" j with
  | Some (Json.String s) when s = schema_version -> (
      let tenant =
        match Json.member "tenant" j with
        | Some (Json.String t) -> Result.Ok t
        | _ -> Result.Error (invalid "request: missing string field \"tenant\"")
      in
      match tenant with
      | Result.Error e -> Result.Error e
      | Result.Ok tenant -> (
          match validate_tenant tenant with
          | Result.Error m -> Result.Error (invalid ("request: " ^ m))
          | Result.Ok () -> (
              match Json.member "job" j with
              | None ->
                  Result.Error (invalid "request: missing object field \"job\"")
              | Some job_j -> (
                  match Apex.Jobs.of_json job_j with
                  | exception Invalid_argument m ->
                      Result.Error (invalid ("request: " ^ m))
                  | job -> (
                      match Json.member "deadline_s" j with
                      | None -> Result.Ok { tenant; job; deadline_s = None }
                      | Some v -> (
                          match Json.to_number_opt v with
                          | Some s when s > 0.0 ->
                              Result.Ok { tenant; job; deadline_s = Some s }
                          | _ ->
                              Result.Error
                                (invalid
                                   "request: \"deadline_s\" must be a \
                                    positive number")))))))
  | Some (Json.String s) ->
      Result.Error
        (invalid
           (Printf.sprintf "request: unknown schema %S (expected %S)" s
              schema_version))
  | _ -> Result.Error (invalid "request: missing string field \"schema\"")

let error_to_json e =
  Json.Obj
    [ ("error", Json.String e.kind);
      ("message", Json.String e.message);
      ("exit_code", Json.Int e.code) ]

let response_to_json = function
  | Ok report ->
      Json.Obj
        [ ("schema", Json.String schema_version);
          ("status", Json.String "ok");
          ("report", report) ]
  | Error e ->
      Json.Obj
        [ ("schema", Json.String schema_version);
          ("status", Json.String "error");
          ("error", error_to_json e) ]

let response_of_json j =
  match (Json.member "schema" j, Json.member "status" j) with
  | Some (Json.String s), _ when s <> schema_version ->
      invalid_arg (Printf.sprintf "response: unknown schema %S" s)
  | Some (Json.String _), Some (Json.String "ok") -> (
      match Json.member "report" j with
      | Some report -> Ok report
      | None -> invalid_arg "response: ok without a \"report\" field")
  | Some (Json.String _), Some (Json.String "error") -> (
      match Json.member "error" j with
      | Some e -> (
          let str f =
            match Json.member f e with
            | Some (Json.String s) -> Some s
            | _ -> None
          in
          let code = Option.bind (Json.member "exit_code" e) Json.to_int_opt in
          match (str "error", str "message", code) with
          | Some kind, Some message, Some code -> Error { code; kind; message }
          | _ -> invalid_arg "response: malformed error object")
      | None -> invalid_arg "response: error without an \"error\" field")
  | _ -> invalid_arg "response: missing schema/status fields"

let error_of_exn = function
  | Apex_mapper.Cover.Unmappable m ->
      { code = 1; kind = "unmappable"; message = m }
  | Invalid_argument m | Failure m ->
      { code = 2; kind = "invalid-argument"; message = m }
  | Sys_error m -> { code = 3; kind = "io-error"; message = m }
  | Apex_guard.Cancelled m -> { code = 4; kind = "cancelled"; message = m }
  | Apex_guard.Fault.Injected site ->
      { code = 5; kind = "fault-injected"; message = site }
  | e -> { code = 3; kind = "io-error"; message = Printexc.to_string e }
