(* Fork-join execution over a capped set of domains.

   Design notes (see DESIGN.md "Execution substrate"):

   - Work distribution is an atomic task-index counter: workers grab
     the next unclaimed index until the batch is drained.  Which domain
     runs which task is racy; *results* are written into a slot array
     indexed by submission order, so delivery order never is.
   - The main domain participates in the batch, so [--jobs N] means N
     runners (N-1 spawned + the caller), and [--jobs 1] never spawns.
   - Spawned domains are per-batch.  Domain spawn costs tens of
     microseconds; every batch in the flow is orders of magnitude
     coarser ((variant, app) pair evaluations, serve requests), and
     per-batch domains keep the scheduler stateless: no idle workers,
     no shutdown protocol, no cross-batch queue to corrupt.
   - Nested calls (a task itself calling [map]) run serially inline:
     the pool never over-subscribes beyond the configured domain
     count, and cannot deadlock on itself. *)

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

(* Run [f] with every pool map inside it degraded to serial execution,
   exactly as if [f] were itself a pool task.  A server that already
   runs one worker domain per request uses this to make the *request*
   the unit of parallelism — per-phase domain fan-out under it would
   oversubscribe the machine without changing any result (the pool's
   serial/parallel equivalence contract). *)
let serially f =
  let flag = Domain.DLS.get in_task in
  let saved = !flag in
  flag := true;
  Fun.protect f ~finally:(fun () -> flag := saved)

(* Task dispatch with the pool-worker fault site: the armed occurrence
   raises before the task body runs, and the runner re-executes the
   task inline exactly once.  Real task exceptions are untouched — they
   keep the deterministic lowest-index delivery below. *)
let run_task f x =
  match
    Guard.Fault.inject "pool-worker";
    f x
  with
  | r -> r
  | exception Guard.Fault.Injected site ->
      Counter.incr "exec.pool_task_retries";
      Guard.Outcome.record ~phase:"pool"
        (Guard.Outcome.Degraded (Guard.Outcome.Fault site));
      f x

let serial_map f xs =
  Counter.incr "exec.pool_batches";
  Counter.add "exec.pool_tasks" (Array.length xs);
  Array.map (run_task f) xs

let parallel_map ~runners f xs =
  let n = Array.length xs in
  Counter.incr "exec.pool_batches";
  Counter.incr "exec.pool_parallel_batches";
  Counter.add "exec.pool_tasks" n;
  Counter.set_gauge "exec.jobs" (float_of_int (jobs ()));
  let results : 'b option array = Array.make n None in
  let failures : (exn * Printexc.raw_backtrace) option array =
    Array.make n None
  in
  let next = Atomic.make 0 in
  let ctx = Registry.context () in
  let budget = Guard.context () in
  let store_ns = Store.namespace () in
  let run_tasks () =
    let flag = Domain.DLS.get in_task in
    flag := true;
    Fun.protect ~finally:(fun () -> flag := false) @@ fun () ->
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match run_task f (Array.unsafe_get xs i) with
        | r -> results.(i) <- Some r
        | exception e ->
            failures.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        loop ()
      end
    in
    loop ()
  in
  (* spawned domains inherit the submitter's ambient budget alongside
     its telemetry span context and store namespace, so a deadline set
     at the CLI reaches every worker's Guard.tick and a tenant-scoped
     request never leaks artifacts out of its namespace *)
  let worker () =
    Registry.with_context ctx (fun () ->
        Guard.with_context budget (fun () ->
            Store.with_namespace store_ns run_tasks))
  in
  let spawned = Array.init (runners - 1) (fun _ -> Domain.spawn worker) in
  Counter.add "exec.pool_domains_spawned" (runners - 1);
  (* the caller is a runner too; it already has the right span context *)
  let main_failure = try run_tasks (); None with e -> Some e in
  Array.iter Domain.join spawned;
  (match main_failure with Some e -> raise e | None -> ());
  (* deterministic error delivery: the first failing submission wins,
     like the serial map would have raised there *)
  Array.iteri
    (fun i failure ->
      match failure with
      | Some (e, bt) ->
          ignore i;
          Printexc.raise_with_backtrace e bt
      | None -> ())
    failures;
  Array.map
    (function
      | Some r -> r
      | None -> assert false (* every slot filled or a failure raised *))
    results

let map f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let runners = min (jobs ()) n in
  Array.to_list
    (if n = 0 then [||]
     else if runners <= 1 || !(Domain.DLS.get in_task) then serial_map f xs
     else parallel_map ~runners f xs)
