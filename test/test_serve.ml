(* Tests for the serve subsystem: wire framing, message validation and
   the five-way error taxonomy, admission-queue fairness and capacity,
   and an end-to-end daemon on a scratch socket — including deadline
   expiry inside a request and shutdown cancelling in-flight work. *)

module Proto = Apex_serve.Proto
module Admission = Apex_serve.Admission
module Server = Apex_serve.Server
module Client = Apex_serve.Client
module Store = Apex_exec.Store
module Registry = Apex_telemetry.Registry
module Json = Apex_telemetry.Json
module Guard = Apex_guard

let check = Alcotest.check

(* --- framing --- *)

let test_frame_roundtrip () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close r;
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let payloads = [ ""; "x"; String.make 10_000 'j'; "{\"a\": 1}" ] in
      List.iter (fun p -> Proto.write_frame w p) payloads;
      List.iter
        (fun p ->
          match Proto.read_frame r with
          | Some got -> check Alcotest.string "payload" p got
          | None -> Alcotest.fail "unexpected EOF")
        payloads;
      (* clean EOF at a frame boundary is None, not an error *)
      Unix.close w;
      check Alcotest.bool "clean EOF" true (Proto.read_frame r = None))

let test_frame_malformed () =
  let reads_as_error bytes =
    let r, w = Unix.pipe () in
    Fun.protect
      ~finally:(fun () ->
        Unix.close r;
        try Unix.close w with Unix.Unix_error _ -> ())
      (fun () ->
        ignore (Unix.write_substring w bytes 0 (String.length bytes));
        Unix.close w;
        match Proto.read_frame r with
        | exception Sys_error _ -> true
        | _ -> false)
  in
  check Alcotest.bool "garbage length" true (reads_as_error "zzz\n");
  check Alcotest.bool "negative length" true (reads_as_error "-4\nabcd");
  check Alcotest.bool "oversized length" true
    (reads_as_error (string_of_int (Proto.max_frame_bytes + 1) ^ "\n"));
  check Alcotest.bool "EOF mid-frame" true (reads_as_error "10\nabc")

(* --- messages --- *)

let test_tenant_validation () =
  let ok s = Proto.validate_tenant s = Result.Ok () in
  check Alcotest.bool "simple" true (ok "alice");
  check Alcotest.bool "charset" true (ok "Tenant_2-x");
  check Alcotest.bool "empty" false (ok "");
  check Alcotest.bool "slash" false (ok "a/b");
  check Alcotest.bool "dot" false (ok "..");
  check Alcotest.bool "tilde" false (ok "a~b");
  check Alcotest.bool "too long" false (ok (String.make 65 'a'))

let test_request_roundtrip () =
  let req =
    { Proto.tenant = "alice";
      job = Apex.Jobs.Mine { app = "camera"; top = 5 };
      deadline_s = Some 2.5 }
  in
  match Proto.request_of_json (Proto.request_to_json req) with
  | Result.Ok got ->
      check Alcotest.string "tenant" req.Proto.tenant got.Proto.tenant;
      check Alcotest.string "job kind" "mine" (Apex.Jobs.kind got.Proto.job);
      check
        Alcotest.(option (float 1e-9))
        "deadline" req.Proto.deadline_s got.Proto.deadline_s
  | Result.Error e -> Alcotest.fail e.Proto.message

let test_request_validation_errors () =
  let err_of j =
    match Proto.request_of_json j with
    | Result.Error e -> e
    | Result.Ok _ -> Alcotest.fail "accepted a malformed request"
  in
  let base tenant =
    Json.Obj
      [ ("schema", Json.String Proto.schema_version);
        ("tenant", Json.String tenant);
        ("job", Apex.Jobs.to_json (Apex.Jobs.Sleep { seconds = 0.0 })) ]
  in
  (* every validation failure is the typed invalid-argument object *)
  check Alcotest.int "bad tenant is code 2" 2 (err_of (base "a/b")).Proto.code;
  check Alcotest.int "bad schema is code 2" 2
    (err_of
       (Json.Obj
          [ ("schema", Json.String "apex.serve/999");
            ("tenant", Json.String "a");
            ("job", Apex.Jobs.to_json (Apex.Jobs.Sleep { seconds = 0.0 })) ]))
      .Proto.code;
  check Alcotest.int "missing job is code 2" 2
    (err_of (Json.Obj [ ("schema", Json.String Proto.schema_version);
                        ("tenant", Json.String "a") ]))
      .Proto.code;
  (* a sleep outside [0, 3600] s (or not finite) is rejected at decode
     time, before admission could journal it *)
  let sleep seconds =
    Json.Obj
      [ ("schema", Json.String Proto.schema_version);
        ("tenant", Json.String "a");
        ("job", Json.Obj [ ("kind", Json.String "sleep"); ("seconds", seconds) ])
      ]
  in
  List.iter
    (fun (label, seconds) ->
      check Alcotest.int label 2 (err_of (sleep seconds)).Proto.code)
    [ ("negative sleep is code 2", Json.Int (-1));
      ("hour-plus sleep is code 2", Json.Int 5000);
      ("nan sleep is code 2", Json.Float Float.nan);
      ("infinite sleep is code 2", Json.Float Float.infinity) ];
  List.iter
    (fun seconds ->
      match Proto.request_of_json (sleep seconds) with
      | Result.Ok _ -> ()
      | Result.Error e -> Alcotest.fail e.Proto.message)
    [ Json.Int 0; Json.Float 3600.0 ];
  (* a negative mine top: the check the mine subcommand calls too *)
  (match Apex.Jobs.mine ~app:"gaussian" ~top:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Jobs.mine accepted top = -1");
  check Alcotest.int "negative mine top is code 2" 2
    (err_of
       (Json.Obj
          [ ("schema", Json.String Proto.schema_version);
            ("tenant", Json.String "a");
            ("job",
             Json.Obj
               [ ("kind", Json.String "mine");
                 ("app", Json.String "gaussian");
                 ("top", Json.Int (-1)) ]) ]))
      .Proto.code

let test_error_taxonomy () =
  let code e = (Proto.error_of_exn e).Proto.code in
  check Alcotest.int "invalid argument" 2 (code (Invalid_argument "x"));
  check Alcotest.int "failure" 2 (code (Failure "x"));
  check Alcotest.int "io" 3 (code (Sys_error "x"));
  check Alcotest.int "cancelled" 4 (code (Guard.Cancelled "deadline"));
  check Alcotest.int "fault" 5 (code (Guard.Fault.Injected "pair-eval"));
  check Alcotest.int "unknown maps to io" 3 (code Not_found)

let test_response_roundtrip () =
  let ok = Proto.Ok (Json.Obj [ ("results", Json.Int 3) ]) in
  (match Proto.response_of_json (Proto.response_to_json ok) with
  | Proto.Ok j -> check Alcotest.bool "report kept" true (Json.member "results" j <> None)
  | Proto.Error _ -> Alcotest.fail "ok became error");
  let err = Proto.Error { code = 4; kind = "over-capacity"; message = "m" } in
  match Proto.response_of_json (Proto.response_to_json err) with
  | Proto.Error e ->
      check Alcotest.int "code" 4 e.Proto.code;
      check Alcotest.string "kind" "over-capacity" e.Proto.kind
  | Proto.Ok _ -> Alcotest.fail "error became ok"

(* --- admission --- *)

let test_admission_round_robin () =
  let q = Admission.create ~max_queue:10 in
  let submit tenant v =
    check Alcotest.bool "admitted" true
      (Admission.submit q ~tenant v = `Admitted)
  in
  (* a floods, b and c trickle: service order interleaves tenants *)
  submit "a" "a1";
  submit "a" "a2";
  submit "a" "a3";
  submit "b" "b1";
  submit "c" "c1";
  let order = List.init 5 (fun _ -> Option.get (Admission.pop q)) in
  check
    Alcotest.(list string)
    "round-robin interleave" [ "a1"; "b1"; "c1"; "a2"; "a3" ] order

let test_admission_batch () =
  let q = Admission.create ~max_queue:10 in
  List.iter
    (fun (t, v) -> ignore (Admission.submit q ~tenant:t v))
    [ ("a", "a1"); ("a", "a2"); ("b", "b1") ];
  check
    Alcotest.(option (list string))
    "batch mirrors pops" (Some [ "a1"; "b1" ])
    (Admission.pop_batch q ~max:2);
  check
    Alcotest.(option (list string))
    "rest" (Some [ "a2" ])
    (Admission.pop_batch q ~max:2)

let test_admission_capacity_and_close () =
  let q = Admission.create ~max_queue:2 in
  check Alcotest.bool "1 fits" true (Admission.submit q ~tenant:"a" 1 = `Admitted);
  check Alcotest.bool "2 fits" true (Admission.submit q ~tenant:"b" 2 = `Admitted);
  check Alcotest.bool "3 rejected" true (Admission.submit q ~tenant:"c" 3 = `Full);
  check Alcotest.int "depth" 2 (Admission.depth q);
  Admission.close q;
  check Alcotest.bool "closed" true (Admission.submit q ~tenant:"a" 4 = `Closed);
  (* draining continues past close, then pops return None forever *)
  check Alcotest.(option int) "drain 1" (Some 1) (Admission.pop q);
  check Alcotest.(option int) "drain 2" (Some 2) (Admission.pop q);
  check Alcotest.(option int) "drained" None (Admission.pop q);
  check Alcotest.(option (list int)) "batch drained" None
    (Admission.pop_batch q ~max:4)

(* --- journal --- *)

module Journal = Apex_serve.Journal

let with_journal_file f () =
  let path = Filename.temp_file "apex-journal-test" ".wal" in
  Sys.remove path;
  Fun.protect
    (fun () -> f path)
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)

let sleep_req tenant seconds =
  { Proto.tenant; job = Apex.Jobs.Sleep { seconds }; deadline_s = None }

let test_journal_roundtrip path =
  let j, unfinished = Journal.open_ path in
  check Alcotest.int "fresh: empty" 0 (List.length unfinished);
  let j1 = Journal.admit j (sleep_req "alice" 0.1) in
  let j2 = Journal.admit j (sleep_req "bob" 0.2) in
  let j3 = Journal.admit j (sleep_req "carol" 0.3) in
  Journal.started j j1;
  Journal.finished j j1;
  Journal.started j j2;
  (* j2 started but never done: still unfinished.  j3 cancelled. *)
  Journal.cancelled j j3;
  Journal.close j;
  let j, unfinished = Journal.open_ path in
  (match unfinished with
  | [ { Journal.jid; req } ] ->
      check Alcotest.int "started-not-done survives" j2 jid;
      check Alcotest.string "request intact" "bob" req.Proto.tenant
  | l ->
      Alcotest.fail (Printf.sprintf "expected 1 unfinished, got %d"
                       (List.length l)));
  (* job ids stay monotonic across incarnations: a fresh admission can
     never collide with a replayed one *)
  let j4 = Journal.admit j (sleep_req "dave" 0.1) in
  check Alcotest.bool "jid monotonic across reopen" true (j4 > j3);
  Journal.close j

let test_journal_torn_tail path =
  let j, _ = Journal.open_ path in
  ignore (Journal.admit j (sleep_req "alice" 0.1) : int);
  ignore (Journal.admit j (sleep_req "bob" 0.2) : int);
  Journal.close j;
  let size_before = (Unix.stat path).Unix.st_size in
  (* simulate a crash mid-append: a length prefix promising 48 bytes,
     followed by too few, with no valid checksum *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x00\x00\x000partial-record-from-a-dying-writer";
  close_out oc;
  let j, unfinished = Journal.open_ path in
  check Alcotest.int "valid prefix replays" 2 (List.length unfinished);
  Journal.close j;
  (* the torn bytes were truncated by the open-time compaction: the
     file is again exactly the live set *)
  check Alcotest.bool "torn tail gone" true
    ((Unix.stat path).Unix.st_size <= size_before);
  let j, unfinished = Journal.open_ path in
  check Alcotest.int "idempotent after compaction" 2 (List.length unfinished);
  Journal.close j

let test_journal_rejects_foreign_file path =
  let oc = open_out_bin path in
  output_string oc "definitely not a journal\n";
  close_out oc;
  match Journal.open_ path with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "opened a non-journal file"

let test_journal_replay_e2e path =
  (* pre-seed the journal with one unfinished job, as a kill -9'd
     daemon would leave behind, then start a daemon on it: the job
     re-enters the queue with no client attached and completes *)
  let j, _ = Journal.open_ path in
  ignore (Journal.admit j (sleep_req "alice" 0.01) : int);
  Journal.close j;
  Registry.enable ();
  Registry.reset ();
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "apex-journal-e2e-%d.sock" (Unix.getpid ()))
  in
  let t =
    Server.start
      { Server.socket_path = socket;
        jobs = 1;
        max_queue = 8;
        default_deadline_s = None;
        tenant_quota_bytes = None;
        journal_path = Some path }
  in
  Fun.protect ~finally:(fun () ->
      Server.shutdown t;
      Registry.disable ();
      Registry.reset ())
  @@ fun () ->
  check Alcotest.int "one job replayed" 1
    (Apex_telemetry.Counter.get "serve.journal_replayed");
  (* wait for the replayed job to complete (no client is waiting on
     it, so poll the daemon's own counters) *)
  let rec wait deadline =
    if Apex_telemetry.Counter.get "serve.requests_completed" >= 1 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "replayed job never completed"
    else begin
      Unix.sleepf 0.02;
      wait deadline
    end
  in
  wait (Unix.gettimeofday () +. 10.0);
  Server.shutdown t;
  (* a clean shutdown leaves no unfinished work behind *)
  let j, unfinished = Journal.open_ path in
  check Alcotest.int "journal drained" 0 (List.length unfinished);
  Journal.close j

let test_journal_clean_shutdown_cancels_queued path =
  (* jobs still queued at shutdown are answered cancelled *and*
     journalled cancelled: a restart must not re-run work the client
     already saw rejected *)
  Registry.enable ();
  Registry.reset ();
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "apex-journal-cancel-%d.sock" (Unix.getpid ()))
  in
  let t =
    Server.start
      { Server.socket_path = socket;
        jobs = 1;
        max_queue = 8;
        default_deadline_s = None;
        tenant_quota_bytes = None;
        journal_path = Some path }
  in
  let resp = ref None in
  let th =
    Thread.create
      (fun () ->
        resp :=
          Some
            (Client.one_shot ~socket
               { Proto.tenant = "alice";
                 job = Apex.Jobs.Sleep { seconds = 30.0 };
                 deadline_s = None }))
      ()
  in
  Unix.sleepf 0.3;
  Server.request_stop t;
  Thread.join th;
  Server.shutdown t;
  Registry.disable ();
  Registry.reset ();
  (match !resp with
  | Some (Proto.Error e) -> check Alcotest.int "cancelled" 4 e.Proto.code
  | Some (Proto.Ok _) -> Alcotest.fail "30s sleep finished under cancel"
  | None -> Alcotest.fail "no response recorded");
  let j, unfinished = Journal.open_ path in
  check Alcotest.int "cancelled job not replayable" 0 (List.length unfinished);
  Journal.close j

(* --- end to end --- *)

let with_server ?default_deadline_s f () =
  let dir = Filename.temp_file "apex-serve-test" "" in
  Sys.remove dir;
  Store.set_dir dir;
  Store.set_enabled true;
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "apex-serve-test-%d.sock" (Unix.getpid ()))
  in
  let t =
    Server.start
      { Server.socket_path = socket;
        jobs = 2;
        max_queue = 8;
        default_deadline_s;
        tenant_quota_bytes = None;
        journal_path = None }
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    (fun () -> f t socket)
    ~finally:(fun () ->
      Server.shutdown t;
      Registry.disable ();
      Registry.reset ();
      if Sys.file_exists dir then rm dir)

let submit_job ~socket ~tenant ?deadline_s job =
  Client.one_shot ~socket { Proto.tenant; job; deadline_s }

let counter_of report name =
  match Json.member "counters" report with
  | Some c -> (
      match Json.member name c with
      | Some v -> Option.value ~default:0 (Json.to_int_opt v)
      | None -> 0)
  | None -> 0

let test_e2e_sleep_ok t socket =
  ignore t;
  match
    submit_job ~socket ~tenant:"alice" (Apex.Jobs.Sleep { seconds = 0.02 })
  with
  | Proto.Ok report ->
      (match Json.member "results" report with
      | Some r ->
          check Alcotest.bool "slept" true (Json.member "slept_s" r <> None)
      | None -> Alcotest.fail "no results section")
  | Proto.Error e -> Alcotest.fail e.Proto.message

let test_e2e_deadline_mid_request t socket =
  ignore t;
  (* the nap is far longer than the deadline: the guard tick inside the
     job trips and the request comes back as the typed cancelled error,
     not a hang and not a crash *)
  match
    submit_job ~socket ~tenant:"alice" ~deadline_s:0.05
      (Apex.Jobs.Sleep { seconds = 30.0 })
  with
  | Proto.Error e ->
      check Alcotest.int "cancelled" 4 e.Proto.code;
      check Alcotest.string "kind" "cancelled" e.Proto.kind
  | Proto.Ok _ -> Alcotest.fail "deadline did not trip"

let test_e2e_namespace_isolation t socket =
  ignore t;
  let mine tenant =
    match
      submit_job ~socket ~tenant (Apex.Jobs.Mine { app = "camera"; top = 3 })
    with
    | Proto.Ok report -> report
    | Proto.Error e -> Alcotest.fail e.Proto.message
  in
  let first = mine "alice" in
  check Alcotest.bool "alice cold: misses" true
    (counter_of first "exec.cache_misses" > 0);
  (* bob shares nothing with alice: his first request misses too *)
  let cross = mine "bob" in
  check Alcotest.bool "bob cold despite alice's artifacts" true
    (counter_of cross "exec.cache_misses" > 0);
  (* alice again: warm, and *only* warm — no recompute in her namespace *)
  let warm = mine "alice" in
  check Alcotest.bool "alice warm: hits" true
    (counter_of warm "exec.cache_hits" > 0);
  check Alcotest.int "alice warm: no misses" 0
    (counter_of warm "exec.cache_misses")

let test_e2e_results_match_cli t socket =
  ignore t;
  (* the served result payload must be byte-identical to what the same
     job computes standalone (the CLI's mine subcommand executes the
     same job through Jobs.execute and writes Jobs.results_json) *)
  let job = Apex.Jobs.Mine { app = "camera"; top = 3 } in
  let standalone = Json.to_string (Apex.Jobs.run job) in
  match submit_job ~socket ~tenant:"cli-twin" job with
  | Proto.Ok report -> (
      match Json.member "results" report with
      | Some r -> check Alcotest.string "results equal" standalone (Json.to_string r)
      | None -> Alcotest.fail "no results section")
  | Proto.Error e -> Alcotest.fail e.Proto.message

let test_e2e_request_runs_serially t socket =
  ignore t;
  (* the request is the unit of parallelism: its DSE pipeline is
     nested in the scheduler's pool task, so even at pool width 2 its
     four pairs run as one serial batch *)
  let module Pool = Apex_exec.Pool in
  let jobs_was = Pool.jobs () in
  Pool.set_jobs 2;
  Fun.protect ~finally:(fun () -> Pool.set_jobs jobs_was) @@ fun () ->
  match
    submit_job ~socket ~tenant:"alice"
      (Apex.Jobs.Dse { apps = [ "camera"; "gaussian" ]; variants = [] })
  with
  | Proto.Ok report ->
      check Alcotest.int "one batch" 1 (counter_of report "exec.pool_batches");
      check Alcotest.int "four pairs" 4 (counter_of report "exec.pool_tasks");
      check Alcotest.int "no parallel batch" 0
        (counter_of report "exec.pool_parallel_batches")
  | Proto.Error e -> Alcotest.fail e.Proto.message

let test_e2e_shutdown_cancels_in_flight t socket =
  (* park a long request, then stop the server while it is running: the
     root-budget cancel reaches the request's guard tick, the response
     is the typed cancelled error, and join does not hang *)
  let resp = ref None in
  let th =
    Thread.create
      (fun () ->
        resp :=
          Some
            (submit_job ~socket ~tenant:"alice"
               (Apex.Jobs.Sleep { seconds = 30.0 })))
      ()
  in
  Unix.sleepf 0.3;
  Server.request_stop t;
  Thread.join th;
  match !resp with
  | Some (Proto.Error e) -> check Alcotest.int "cancelled" 4 e.Proto.code
  | Some (Proto.Ok _) -> Alcotest.fail "30s sleep finished under cancel"
  | None -> Alcotest.fail "no response recorded"

let test_e2e_shutdown_with_idle_conn t socket =
  (* an idle client that keeps its connection open must not stall
     shutdown: join wakes the handler parked in read_frame by shutting
     down the connection's read side, instead of waiting for the peer
     to close.  Without that, this test hangs in Server.shutdown. *)
  let c = Client.connect socket in
  (* prove the connection is live, then leave it idle *)
  (match
     Client.request c
       { Proto.tenant = "alice";
         job = Apex.Jobs.Sleep { seconds = 0.01 };
         deadline_s = None }
   with
  | Proto.Ok _ -> ()
  | Proto.Error e -> Alcotest.fail e.Proto.message);
  let t0 = Unix.gettimeofday () in
  Server.shutdown t;
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "shutdown prompt despite idle connection" true
    (dt < 5.0);
  Client.close c

let () =
  Alcotest.run "serve"
    [ ( "proto",
        [ Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "malformed frames" `Quick test_frame_malformed;
          Alcotest.test_case "tenant validation" `Quick test_tenant_validation;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "request validation" `Quick
            test_request_validation_errors;
          Alcotest.test_case "error taxonomy" `Quick test_error_taxonomy;
          Alcotest.test_case "response roundtrip" `Quick
            test_response_roundtrip ] );
      ( "admission",
        [ Alcotest.test_case "round-robin fairness" `Quick
            test_admission_round_robin;
          Alcotest.test_case "batch pop" `Quick test_admission_batch;
          Alcotest.test_case "capacity and close" `Quick
            test_admission_capacity_and_close ] );
      ( "journal",
        [ Alcotest.test_case "record roundtrip and replay" `Quick
            (with_journal_file test_journal_roundtrip);
          Alcotest.test_case "torn tail truncation" `Quick
            (with_journal_file test_journal_torn_tail);
          Alcotest.test_case "foreign file rejected" `Quick
            (with_journal_file test_journal_rejects_foreign_file);
          Alcotest.test_case "daemon replays unfinished job" `Quick
            (with_journal_file test_journal_replay_e2e);
          Alcotest.test_case "clean shutdown cancels queued" `Quick
            (with_journal_file test_journal_clean_shutdown_cancels_queued) ] );
      ( "daemon",
        [ Alcotest.test_case "sleep job ok" `Quick
            (with_server test_e2e_sleep_ok);
          Alcotest.test_case "deadline mid-request" `Quick
            (with_server test_e2e_deadline_mid_request);
          Alcotest.test_case "tenant namespace isolation" `Quick
            (with_server test_e2e_namespace_isolation);
          Alcotest.test_case "results match standalone" `Quick
            (with_server test_e2e_results_match_cli);
          Alcotest.test_case "request runs serially" `Quick
            (with_server test_e2e_request_runs_serially);
          Alcotest.test_case "shutdown cancels in-flight" `Quick
            (with_server test_e2e_shutdown_cancels_in_flight);
          Alcotest.test_case "shutdown with idle connection" `Quick
            (with_server test_e2e_shutdown_with_idle_conn) ] ) ]
