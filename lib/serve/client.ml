module Json = Apex_telemetry.Json

type t = { fd : Unix.file_descr }

(* 50ms, 100, 200, 400, 800, 1600, then 2s flat: ~19s of patience by
   the 12th attempt — generous for a daemon still binding its socket,
   while a down daemon is reported in well under a minute. *)
let connect_policy =
  Apex_guard.Retry.v ~attempts:12 ~base_delay_s:0.05 ~max_delay_s:2.0 ()

let connect path =
  let try_once () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd }
    | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
  in
  (* only daemon-not-up-yet errors retry; anything else — a permission
     problem, a path that is not a socket, a protocol failure later on
     — fails fast rather than masquerading as a slow daemon *)
  let retryable = function
    | Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> true
    | _ -> false
  in
  match
    Apex_guard.Retry.run
      ~policy:connect_policy
      ~label:"client_connect" ~retryable try_once
  with
  | c -> c
  | exception Unix.Unix_error (((Unix.ENOENT | Unix.ECONNREFUSED) as e), _, _)
    ->
      raise
        (Sys_error
           (Printf.sprintf "serve: cannot connect to %s: %s" path
              (Unix.error_message e)))

let request t req =
  Proto.write_frame t.fd (Json.to_string (Proto.request_to_json req));
  match Proto.read_frame t.fd with
  | Some payload -> (
      match Json.of_string payload with
      | Result.Ok j -> Proto.response_of_json j
      | Result.Error m ->
          invalid_arg ("serve: malformed response JSON: " ^ m))
  | None -> raise (Sys_error "serve: connection closed before a response")

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
