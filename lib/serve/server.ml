module Counter = Apex_telemetry.Counter
module Registry = Apex_telemetry.Registry
module Report = Apex_telemetry.Report
module Json = Apex_telemetry.Json
module Guard = Apex_guard
module Pool = Apex_exec.Pool
module Store = Apex_exec.Store

type config = {
  socket_path : string;
  jobs : int;
  max_queue : int;
  default_deadline_s : float option;
  tenant_quota_bytes : int option;
  journal_path : string option;
}

(* a pending request: the parsed request, its admission-time budget,
   its journal id (when journaling), and the promise its connection
   thread blocks on *)
type pending = {
  req : Proto.request;
  budget : Guard.Budget.t;
  jid : int option;
  p_lock : Mutex.t;
  p_cond : Condition.t;
  mutable resp : Proto.response option;
}

(* a live connection: the handler thread and its socket, so shutdown
   can wake a handler parked in [read_frame] by shutting the fd down *)
type conn = { th : Thread.t; fd : Unix.file_descr }

type t = {
  config : config;
  root : Guard.Budget.t;
  queue : pending Admission.t;
  journal : Journal.t option;
  lsock : Unix.file_descr;
  stop : bool Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable scheduler_thread : Thread.t option;
  conns_lock : Mutex.t;
  mutable conns : conn list;
}

let socket_path t = t.config.socket_path

(* Serve-level counters must land in the global scope no matter where
   they are bumped.  The registry's current scope is sys-thread-local,
   so connection threads already sit in the global scope even while the
   scheduler executes a request inline on the same domain; the explicit
   pin documents that intent and keeps these counters global should a
   caller ever run them from inside some other scope. *)
let in_global f = Registry.with_scope Registry.global_scope f

(* journal transitions always count in the global scope, wherever the
   calling thread or worker domain currently sits *)
let journal_op t p f =
  match (t.journal, p.jid) with
  | Some j, Some jid -> in_global (fun () -> f j jid)
  | _ -> ()

let fulfill p resp =
  Mutex.protect p.p_lock (fun () ->
      p.resp <- Some resp;
      Condition.signal p.p_cond)

let await p =
  Mutex.protect p.p_lock (fun () ->
      let rec go () =
        match p.resp with
        | Some r -> r
        | None ->
            Condition.wait p.p_cond p.p_lock;
            go ()
      in
      go ())

(* --- request execution (worker domains) --- *)

(* The isolation stack, outside in: a fresh telemetry scope (reports
   aggregate as if the request ran alone), the tenant's cache namespace
   (artifact sharing is intra-tenant only), a request-local DSE memo
   scope (no cross-request traffic through process memory — sharing
   goes through the namespaced store), and the request budget as
   ambient (every hot loop's tick sees the deadline and the server
   cancel).  The request is the unit of parallelism: it runs as a
   scheduler pool task, inside which the job's own pool calls are
   nested and so run serially. *)
let run_isolated ~tenant ~budget job =
  Registry.with_scope (Registry.new_scope ()) @@ fun () ->
  Store.with_namespace (Some tenant) @@ fun () ->
  Apex.Dse.with_local_memo @@ fun () ->
  Guard.with_budget budget @@ fun () ->
  let results = Apex.Jobs.run job in
  let snap = Registry.snapshot () in
  Report.to_json ~results snap

(* a request is dead on arrival at the scheduler when it was cancelled
   while queued (server shutdown) or its deadline expired waiting *)
let queued_reject (p : pending) =
  match Guard.Budget.cancelled p.budget with
  | Some reason -> Some reason
  | None -> (
      match Guard.Budget.remaining_s p.budget with
      | Some 0.0 -> Some "deadline exceeded while queued"
      | _ -> None)

let execute t (p : pending) =
  let { Proto.tenant; job; _ } = p.req in
  match queued_reject p with
  | Some reason ->
      in_global (fun () -> Counter.incr "serve.requests_cancelled");
      journal_op t p Journal.cancelled;
      Proto.Error { code = 4; kind = "cancelled"; message = reason }
  | None ->
      journal_op t p Journal.started;
      let t0 = Unix.gettimeofday () in
      let resp =
        match run_isolated ~tenant ~budget:p.budget job with
        | report -> Proto.Ok report
        | exception e -> Proto.Error (Proto.error_of_exn e)
      in
      (* a cancelled job must replay after a crash *and* must not be
         marked done on a clean cancel; everything else (ok or a
         deterministic error) is terminal *)
      (match resp with
      | Proto.Error e when e.code = 4 -> journal_op t p Journal.cancelled
      | Proto.Ok _ | Proto.Error _ -> journal_op t p Journal.finished);
      (* tenant byte quota: trim the tenant's namespaces (other builds'
         entries first, then the oldest) after every request, so a
         tenant can exceed the quota only by the size of one request's
         artifacts *)
      (match t.config.tenant_quota_bytes with
      | Some budget_bytes ->
          let deleted, freed =
            Store.gc_prefix ~prefix:(tenant ^ "~") ~budget_bytes ()
          in
          if deleted > 0 then
            in_global (fun () ->
                Counter.add "serve.quota_evictions" deleted;
                Counter.add "serve.quota_bytes_freed" freed)
      | None -> ());
      in_global (fun () ->
          Counter.observe "serve.request_ms"
            (1e3 *. (Unix.gettimeofday () -. t0));
          match resp with
          | Proto.Ok _ -> Counter.incr "serve.requests_completed"
          | Proto.Error e when e.code = 4 ->
              Counter.incr "serve.requests_cancelled"
          | Proto.Error _ -> Counter.incr "serve.requests_failed");
      resp

(* The scheduler: drain the admission queue round-robin into batches of
   at most [jobs] requests and hand each batch to [Pool.map], which
   adapts the fan-out to the machine — spawned domains when cores allow
   it, serial inline execution otherwise.  The request stays the unit
   of parallelism either way (a request's own pool calls are nested in
   its task, so they run serially), and on a small host serial inline
   execution is not a fallback but the fast path: executing on the main
   domain keeps minor collections domain-local, where running requests
   on dedicated worker domains would pay a stop-the-world rendezvous
   with every blocked sibling domain on every minor GC — measured at
   three orders of magnitude over the domain-local cost on a
   single-core host. *)
let rec scheduler_loop t =
  match Admission.pop_batch t.queue ~max:t.config.jobs with
  | None -> ()
  | Some batch ->
      (* fulfill inside the task: a finished response reaches its
         connection thread immediately rather than waiting out the
         batch's slowest request behind the Pool.map barrier *)
      ignore
        (Pool.map (fun p -> fulfill p (execute t p)) batch : unit list);
      scheduler_loop t

(* --- connection threads (main domain) --- *)

(* a request's budget: a child of the server root, so a server-level
   cancel reaches it, with the tighter of the request's own deadline
   and the server's default *)
let request_budget t (req : Proto.request) =
  let deadline_s =
    match (req.deadline_s, t.config.default_deadline_s) with
    | None, d | d, None -> d
    | Some a, Some b -> Some (Float.min a b)
  in
  Guard.Budget.child ?deadline_s t.root

let process t payload =
  match Json.of_string payload with
  | Result.Error _ ->
      Proto.Error
        { code = 2; kind = "invalid-argument";
          message = "request: malformed JSON" }
  | Result.Ok j -> (
      match Proto.request_of_json j with
      | Result.Error e -> Proto.Error e
      | Result.Ok req ->
          let budget = request_budget t req in
          (* WAL ordering: the admission is on disk *before* the job
             can enter the queue, so a crash between the two replays
             the job rather than losing it; a reject immediately
             appends the balancing Cancelled record *)
          let jid =
            match t.journal with
            | Some j -> Some (in_global (fun () -> Journal.admit j req))
            | None -> None
          in
          let p =
            { req; budget; jid; p_lock = Mutex.create ();
              p_cond = Condition.create (); resp = None }
          in
          (match Admission.submit t.queue ~tenant:req.tenant p with
          | `Admitted ->
              in_global (fun () -> Counter.incr "serve.requests_admitted");
              await p
          | `Full ->
              in_global (fun () -> Counter.incr "serve.requests_rejected");
              journal_op t p Journal.cancelled;
              Proto.Error
                { code = 4; kind = "over-capacity";
                  message =
                    Printf.sprintf
                      "queue depth %d reached; resubmit when load drops"
                      t.config.max_queue }
          | `Closed ->
              in_global (fun () -> Counter.incr "serve.requests_rejected");
              journal_op t p Journal.cancelled;
              Proto.Error
                { code = 4; kind = "cancelled";
                  message = "server is shutting down" }))

let handle_conn t fd =
  (* prune our own entry, then close — both under conns_lock, so [join]
     can never shut down an fd the handler has already closed (and a
     long-running daemon does not accumulate a handle per connection) *)
  let finally () =
    Mutex.protect t.conns_lock (fun () ->
        t.conns <- List.filter (fun c -> c.fd <> fd) t.conns;
        try Unix.close fd with Unix.Unix_error _ -> ())
  in
  Fun.protect ~finally @@ fun () ->
  let rec loop () =
    match Proto.read_frame fd with
    | None -> ()
    | Some payload ->
        let resp = process t payload in
        Proto.write_frame fd (Json.to_string (Proto.response_to_json resp));
        loop ()
  in
  (* a peer that vanishes mid-frame or mid-reply only loses its own
     connection *)
  try loop () with Sys_error _ -> ()

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      (* select with a short timeout so a stop request (set by a signal
         handler: no mutex, no wakeup pipe needed) is noticed promptly *)
      (match Unix.select [ t.lsock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Guard.Retry.eintr (fun () -> Unix.accept t.lsock) with
          | fd, _ ->
              (* spawn while holding conns_lock: the handler's own
                 removal also takes it, so the entry is registered
                 before the handler can possibly prune it *)
              Mutex.protect t.conns_lock (fun () ->
                  let th = Thread.create (fun () -> handle_conn t fd) () in
                  t.conns <- { th; fd } :: t.conns)
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* --- lifecycle --- *)

let start config =
  if config.jobs < 1 then
    invalid_arg (Printf.sprintf "serve: --jobs %d < 1" config.jobs);
  if config.max_queue < 1 then
    invalid_arg (Printf.sprintf "serve: --max-queue %d < 1" config.max_queue);
  (match config.default_deadline_s with
  | Some s when s <= 0.0 ->
      invalid_arg (Printf.sprintf "serve: --deadline %g is not positive" s)
  | _ -> ());
  Registry.enable ();
  (* replay the journal before anything can connect: unfinished jobs
     from the previous incarnation re-enter the queue ahead of new
     admissions, preserving admission order across the crash *)
  let journal, replayed =
    match config.journal_path with
    | None -> (None, [])
    | Some path ->
        let j, unfinished = Journal.open_ path in
        (Some j, unfinished)
  in
  (* replace a stale socket file from a previous run; a *live* daemon
     on the same path will have its listener stolen, which Unix domain
     sockets cannot distinguish — one daemon per path is the contract *)
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind lsock (Unix.ADDR_UNIX config.socket_path);
     Unix.listen lsock 64
   with e ->
     (try Unix.close lsock with Unix.Unix_error _ -> ());
     raise e);
  let t =
    { config;
      root = Guard.Budget.v ();
      queue = Admission.create ~max_queue:config.max_queue;
      journal;
      lsock;
      stop = Atomic.make false;
      accept_thread = None;
      scheduler_thread = None;
      conns_lock = Mutex.create ();
      conns = [] }
  in
  (* re-enqueue replayed jobs before the worker threads exist, so they
     run ahead of any post-restart submission; nobody awaits their
     promise — a resubmitting client reaches the result through the
     store's per-pair and per-job artifacts instead *)
  List.iter
    (fun { Journal.jid; req } ->
      let p =
        { req; budget = request_budget t req; jid = Some jid;
          p_lock = Mutex.create (); p_cond = Condition.create ();
          resp = None }
      in
      match Admission.submit t.queue ~tenant:req.Proto.tenant p with
      | `Admitted ->
          in_global (fun () -> Counter.incr "serve.requests_admitted")
      | `Full | `Closed ->
          (* a shrunk --max-queue across the restart can orphan a
             replayed job; record the drop rather than looping on it *)
          in_global (fun () -> Counter.incr "serve.requests_rejected");
          journal_op t p Journal.cancelled)
    replayed;
  t.scheduler_thread <- Some (Thread.create scheduler_loop t);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let request_stop t =
  (* async-signal-safe: one atomic store plus an atomic CAS; the accept
     loop and the guard ticks do the actual unwinding *)
  Atomic.set t.stop true;
  Guard.Budget.cancel ~reason:"server shutdown" t.root

let join t =
  (match t.accept_thread with
  | Some th ->
      Thread.join th;
      t.accept_thread <- None
  | None -> ());
  (* no new connections past this point: stop admitting and let the
     scheduler drain — queued entries carry a cancelled budget, so each
     is answered cancelled/4 without running *)
  Admission.close t.queue;
  (match t.scheduler_thread with
  | Some th ->
      Thread.join th;
      t.scheduler_thread <- None
  | None -> ());
  (* every promise is fulfilled; each connection thread flushes its
     in-flight reply and then blocks in read_frame waiting for its
     peer, so wake them: shutting down the read side makes the blocked
     read return EOF without perturbing a reply still being written.
     An idle client holding its connection open can therefore no
     longer stall shutdown.  Done under conns_lock so a handler cannot
     close its fd between our snapshot and the shutdown call. *)
  let conns =
    Mutex.protect t.conns_lock (fun () ->
        List.iter
          (fun c ->
            try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          t.conns;
        t.conns)
  in
  List.iter (fun c -> Thread.join c.th) conns;
  (* every queued job has been answered (and journalled done or
     cancelled) by now, so a clean shutdown leaves an empty live set *)
  Option.iter Journal.close t.journal;
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ()

let shutdown t =
  request_stop t;
  join t
