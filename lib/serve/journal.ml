(* Write-ahead job journal: the durable half of crash-only serve.

   Every admission is appended (and fsynced) *before* the job enters
   the in-memory queue, so the set of jobs the daemon has accepted is
   always recoverable from disk.  The other records are written but
   not fsynced: a killed process cannot lose them (the kernel already
   holds the write), only a host crash can, and then the job merely
   replays — the contract for a started-but-not-done job anyway.
   Records are length-prefixed and checksummed; a crash mid-append
   leaves a torn tail that replay truncates.  Replay returns the
   admitted-but-unfinished jobs in admission order and compacts the
   file down to exactly those. *)

module Counter = Apex_telemetry.Counter
module Json = Apex_telemetry.Json

let magic = "APEXJRNL1\n"

(* rewrite the file once this many records accumulate past the last
   compaction; bounds journal growth on a long-lived daemon *)
let compact_every = 256

let max_record_bytes = Proto.max_frame_bytes

type entry = { jid : int; req : Proto.request }

type record =
  | Admitted of int * Proto.request
  | Started of int
  | Done of int
  | Cancelled of int

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  lock : Mutex.t;
  live : (int, Proto.request) Hashtbl.t;
  mutable next_jid : int;
  mutable since_compact : int;
}

let path t = t.path

(* --- record codec --- *)

let record_to_string r =
  let simple rec_ jid =
    Json.Obj [ ("rec", Json.String rec_); ("jid", Json.Int jid) ]
  in
  Json.to_string
    (match r with
    | Admitted (jid, req) ->
        Json.Obj
          [ ("rec", Json.String "admitted"); ("jid", Json.Int jid);
            ("request", Proto.request_to_json req) ]
    | Started jid -> simple "started" jid
    | Done jid -> simple "done" jid
    | Cancelled jid -> simple "cancelled" jid)

let record_of_string s =
  match Json.of_string s with
  | Result.Error _ -> None
  | Result.Ok j -> (
      match (Json.member "rec" j, Json.member "jid" j) with
      | Some (Json.String "admitted"), Some (Json.Int jid) -> (
          match Json.member "request" j with
          | None -> None
          | Some rj -> (
              match Proto.request_of_json rj with
              | Result.Ok req -> Some (Admitted (jid, req))
              | Result.Error _ -> None))
      | Some (Json.String "started"), Some (Json.Int jid) -> Some (Started jid)
      | Some (Json.String "done"), Some (Json.Int jid) -> Some (Done jid)
      | Some (Json.String "cancelled"), Some (Json.Int jid) ->
          Some (Cancelled jid)
      | _ -> None)

(* u32-BE length, then the raw 16-byte MD5 of the payload, then the
   payload itself.  The digest sits between length and payload so a
   torn length/digest is caught by the size check and a torn payload
   by the digest check — either way replay stops at the record start. *)
let frame payload =
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (String.length payload));
  Bytes.to_string hdr ^ Digest.string payload ^ payload

(* scan the raw file, returning the decoded records and the byte
   offset where the valid prefix ends (everything past it is torn) *)
let scan raw =
  let n = String.length raw in
  let rec go off acc =
    if off + 20 > n then (List.rev acc, off)
    else
      let len = Int32.to_int (String.get_int32_be raw off) in
      if len < 0 || len > max_record_bytes || off + 20 + len > n then
        (List.rev acc, off)
      else
        let digest = String.sub raw (off + 4) 16 in
        let payload = String.sub raw (off + 20) len in
        if not (String.equal digest (Digest.string payload)) then
          (List.rev acc, off)
        else
          match record_of_string payload with
          | None -> (List.rev acc, off)
          | Some r -> go (off + 20 + len) (r :: acc)
  in
  go (String.length magic) []

(* --- file plumbing --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      go (off + Apex_guard.Retry.eintr (fun () ->
              Unix.write_substring fd s off (len - off)))
  in
  go 0

let unfinished_of t =
  Hashtbl.fold (fun jid req acc -> { jid; req } :: acc) t.live []
  |> List.sort (fun a b -> compare a.jid b.jid)

(* rewrite the journal to exactly one Admitted record per live job,
   via temp-file + rename so a crash mid-compaction loses nothing *)
let compact_locked t =
  let tmp = t.path ^ ".compact.tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     write_all fd magic;
     List.iter
       (fun { jid; req } ->
         write_all fd (frame (record_to_string (Admitted (jid, req)))))
       (unfinished_of t);
     Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Unix.rename tmp t.path;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
  t.since_compact <- 0;
  Counter.incr "serve.journal_compactions"

let append t r =
  Mutex.protect t.lock (fun () ->
      (match r with
      | Admitted (jid, req) -> Hashtbl.replace t.live jid req
      | Started _ -> ()
      | Done jid | Cancelled jid -> Hashtbl.remove t.live jid);
      write_all t.fd (frame (record_to_string r));
      (match r with
      | Admitted _ -> Unix.fsync t.fd
      | Started _ | Done _ | Cancelled _ -> ());
      Counter.incr "serve.journal_appends";
      t.since_compact <- t.since_compact + 1;
      if t.since_compact >= compact_every then compact_locked t)

(* --- API --- *)

let open_ path =
  let existed = Sys.file_exists path in
  let raw = if existed then read_file path else "" in
  let fresh = raw = "" in
  if
    (not fresh)
    && not
         (String.length raw >= String.length magic
         && String.equal (String.sub raw 0 (String.length magic)) magic)
  then
    raise
      (Sys_error
         (Printf.sprintf "journal %s: bad magic (not an apex job journal)"
            path));
  let records, valid_len = if fresh then ([], 0) else scan raw in
  let torn = if fresh then 0 else String.length raw - valid_len in
  let t =
    { path;
      fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644;
      lock = Mutex.create ();
      live = Hashtbl.create 16;
      next_jid = 1;
      since_compact = 0 }
  in
  if fresh then begin
    write_all t.fd magic;
    Unix.fsync t.fd
  end;
  List.iter
    (fun r ->
      (match r with
      | Admitted (jid, req) -> Hashtbl.replace t.live jid req
      | Started _ -> ()
      | Done jid | Cancelled jid -> Hashtbl.remove t.live jid);
      let jid =
        match r with
        | Admitted (j, _) | Started j | Done j | Cancelled j -> j
      in
      if jid >= t.next_jid then t.next_jid <- jid + 1)
    records;
  let unfinished = unfinished_of t in
  if torn > 0 then Counter.add "serve.journal_truncated_bytes" torn;
  Counter.add "serve.journal_replayed" (List.length unfinished);
  (* compact whenever the file holds anything beyond the live set: a
     torn tail, finished history, or replayed Started markers *)
  if torn > 0 || List.length records <> List.length unfinished then
    Mutex.protect t.lock (fun () -> compact_locked t);
  (t, unfinished)

let admit t req =
  let jid =
    Mutex.protect t.lock (fun () ->
        let jid = t.next_jid in
        t.next_jid <- jid + 1;
        jid)
  in
  append t (Admitted (jid, req));
  jid

let started t jid = append t (Started jid)
let finished t jid = append t (Done jid)
let cancelled t jid = append t (Cancelled jid)

let close t =
  Mutex.protect t.lock (fun () ->
      (* the records [append] wrote unsynced reach the disk here *)
      (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
      try Unix.close t.fd with Unix.Unix_error _ -> ())
