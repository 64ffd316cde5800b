(* Fork-join execution over a capped set of domains, fed by a producer.

   Design notes (see DESIGN.md "Execution runtime"):

   - One scheduling path.  The calling domain produces the tasks, in
     submission order, and each task starts on a spawned runner as soon
     as it is produced; the caller joins as a runner once production
     ends, so [--jobs N] means N runners and [--jobs 1] never spawns.
     [map] is this path with an identity producer.  Which runner takes
     which task is racy; *results* go into a slot array indexed by
     submission order, so delivery order never is.
   - A runner that finds no produced task retires rather than waiting
     for one, and the producer spawns a fresh runner (at most N-1 live)
     with its next task.  An idle domain is not free: every minor
     collection of the busy producer is a stop-the-world rendezvous
     with it.  Runners blocked on a condition variable through the
     PE Spec climbs made warm DSE jobs slower than building every
     variant before evaluating any (DESIGN.md has the numbers).
     Per-batch domains keep the scheduler stateless: no idle workers,
     no shutdown protocol, no cross-batch queue to corrupt.
   - A domain's spawn and join took 100-200 us on a 2-vCPU host: far
     below a computed pair evaluation, above a stored pair's read
     (about 0.1 ms).  So a task the producer marks [inline] runs on
     the producer, right after it is produced, under its own detached
     span part, and no runner is spawned for it.  Width 1 has no
     inline tasks: it already runs everything on the caller.
   - Production stays on the caller: a producer may feed domain-local
     memo tables, which a runner must not touch.
   - With one runner (width 1 or a nested call) everything is
     produced before any task runs: the serial order of a plain
     build-then-map, so fault schedules replay.
   - Nested calls (a task or the producer itself calling [map]) run
     serially inline: the pool never over-subscribes beyond the
     configured domain count, and cannot deadlock on itself. *)

module Counter = Apex_telemetry.Counter
module Registry = Apex_telemetry.Registry
module Guard = Apex_guard

let clamp n = max 1 (min 64 n)

let default_jobs () =
  match Sys.getenv_opt "APEX_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> clamp n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let override = ref None

let jobs () = match !override with Some n -> n | None -> default_jobs ()

let set_jobs n = override := Some (clamp n)

(* true while this domain is executing pool tasks: nested maps go serial *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* Run one batch.  [produce] runs on the calling domain, in order, and
   stops at its first exception; every produced task still runs, and
   the failure at the lowest index -- producer's or task's -- is raised
   once all runners are joined, as a serial map would have raised
   there.  Each task records its spans into a detached subtree
   (Registry.detach), merged in submission order at the end, so a trace
   does not depend on which runner finished first nor on how the tasks
   interleaved with production. *)
let pipeline ?(inline = fun _ -> false) ~produce f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let runners = if !(Domain.DLS.get in_task) then 1 else min (jobs ()) n in
  if n > 0 then begin
    Counter.incr "exec.pool_batches";
    Counter.add "exec.pool_tasks" n
  end;
  if runners > 1 then begin
    Counter.incr "exec.pool_parallel_batches";
    Counter.set_gauge "exec.jobs" (float_of_int (jobs ()))
  end;
  let results = Array.make n None in
  let failures = Array.make n None in
  let ctx = Registry.context () in
  let parts = Array.init n (fun _ -> Registry.detach ctx) in
  (* [queue] holds the produced tasks no runner has claimed yet, in
     submission order; [live] counts the spawned runners that have not
     retired *)
  let lock = Mutex.create () in
  let queue = Queue.create () and live = ref 0 in
  let claim ~retire =
    Mutex.protect lock (fun () ->
        match Queue.take_opt queue with
        | Some _ as task -> task
        | None ->
            if retire then decr live;
            None)
  in
  let run (i, x) =
    match Registry.with_context parts.(i) (fun () -> f x) with
    | r -> results.(i) <- Some r
    | exception e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
  in
  let rec run_tasks ~retire =
    match claim ~retire with
    | None -> ()
    | Some task ->
        run task;
        run_tasks ~retire
  in
  (* spawned domains inherit the submitter's ambient budget and store
     namespace (and, per task, its span context through [parts]), so a
     deadline set at the CLI reaches every worker's Guard.tick and a
     tenant-scoped request never leaks artifacts out of its namespace *)
  let budget = Guard.current () in
  let store_ns = Store.namespace () in
  let worker () =
    (Domain.DLS.get in_task) := true;
    Guard.with_budget budget (fun () ->
        Store.with_namespace store_ns (fun () -> run_tasks ~retire:true))
  in
  let spawned = ref [] in
  let rec produce_from i =
    if i < n then
      match produce xs.(i) with
      | x when runners > 1 && inline x ->
          run (i, x);
          produce_from (i + 1)
      | x ->
          let spawn =
            Mutex.protect lock (fun () ->
                Queue.add (i, x) queue;
                (* the last task is the caller's own *)
                i < n - 1 && !live < runners - 1
                && (incr live; true))
          in
          if spawn then begin
            spawned := Domain.spawn worker :: !spawned;
            Counter.incr "exec.pool_domains_spawned"
          end;
          produce_from (i + 1)
      | exception e -> failures.(i) <- Some (e, Printexc.get_raw_backtrace ())
  in
  let flag = Domain.DLS.get in_task in
  let saved = !flag in
  flag := true;
  Fun.protect
    ~finally:(fun () ->
      List.iter Domain.join !spawned;
      flag := saved)
    (fun () ->
      produce_from 0;
      run_tasks ~retire:false);
  Array.iter (Registry.merge ~into:ctx) parts;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
    failures;
  Array.to_list (Array.map Option.get results)

let map f xs = pipeline ~produce:Fun.id f xs
