(* Resource governance for the DSE flow: one budget value bundling a
   wall-clock deadline and a cooperative cancellation token,
   checked by a cheap [tick] in every worst-case-exponential hot loop
   (mining enumeration, clique branch-and-bound, CDCL search,
   optimizer passes), plus a deterministic fault-injection harness that
   exercises the degradation ladders those loops implement.

   Design constraints, in priority order:

   - With no deadline and no unfired deadline shot, [tick] must cost a
     couple of loads and one predictable branch — the hot loops call it
     millions of times and the flow's no-budget results must be
     bit-identical to a run without the guard layer at all.
   - Budgets are *cooperative*: nothing is killed.  A search that
     overruns returns its best-so-far answer with a typed
     [Outcome.Degraded] instead of raising, and only code with nothing
     to salvage lets {!Cancelled} escape to an enclosing ladder.
   - Deadlines are wall-clock and therefore shared: a child budget
     derived for a pool worker or a per-pair evaluation inherits the
     parent's deadline (the clock subdivides itself) and the parent's
     cancellation (via the parent link), but carries its own token so
     cancelling one pair never cancels its siblings. *)

module Counter = Apex_telemetry.Counter

exception Cancelled of string

(* --- typed phase outcomes --- *)

module Outcome = struct
  type reason =
    | Deadline
    | Fuel
    | Fault of string
    | Error of string

  type t = Exact | Degraded of reason | Skipped of reason

  let reason_to_string = function
    | Deadline -> "deadline"
    | Fuel -> "fuel"
    | Fault site -> "fault:" ^ site
    | Error m -> "error:" ^ m

  let to_string = function
    | Exact -> "exact"
    | Degraded r -> "degraded:" ^ reason_to_string r
    | Skipped r -> "skipped:" ^ reason_to_string r

  let is_exact = function Exact -> true | _ -> false

  (* worst-of, for aggregating a fleet: Skipped > Degraded > Exact *)
  let worst a b =
    match (a, b) with
    | (Skipped _ as s), _ | _, (Skipped _ as s) -> s
    | (Degraded _ as d), _ | _, (Degraded _ as d) -> d
    | Exact, Exact -> Exact

  (* Outcomes surface in the telemetry report as counters: a total per
     class (guard.outcome.exact / degraded / skipped) the CI matrix can
     --require, and a per-phase breakdown for the non-exact classes.
     Exact counts are per-run deterministic, so the jobs=1 vs jobs=4
     report-diff guard stays clean. *)
  let record ~phase t =
    match t with
    | Exact -> Counter.incr "guard.outcome.exact"
    | Degraded r ->
        Counter.incr "guard.outcome.degraded";
        Counter.incr
          (Printf.sprintf "guard.degraded.%s.%s" phase (reason_to_string r))
    | Skipped r ->
        Counter.incr "guard.outcome.skipped";
        Counter.incr
          (Printf.sprintf "guard.skipped.%s.%s" phase (reason_to_string r))

  (* reading the counters a computation added (Store.memoize) *)
  let exact_counters =
    List.for_all (fun (k, _) ->
        k <> "guard.outcome.degraded" && k <> "guard.outcome.skipped")

  let circumstance k =
    String.starts_with ~prefix:"guard." k && k <> "guard.outcome.exact"
end

(* --- budgets --- *)

module Budget = struct
  type t = {
    deadline : float;  (* absolute Unix time; infinity = no deadline *)
    token : string option Atomic.t;
    parent : t option;
  }

  (* the one unlimited value: [tick] recognizes it physically, so the
     default path through the guard never reads the clock *)
  let unlimited =
    { deadline = infinity; token = Atomic.make None; parent = None }

  let deadline_of = function
    | Some s when s >= 0.0 -> Unix.gettimeofday () +. s
    | _ -> infinity

  let v ?deadline_s () =
    { deadline = deadline_of deadline_s; token = Atomic.make None;
      parent = None }

  (* physical, not structural: a budget built with [v ()] carries no
     deadline but its token is still a live cancellation point *)
  let is_unlimited b = b == unlimited

  (* Child derivation: the deadline is the min of the parent's and the
     child's own (a phase deadline can only tighten the run deadline),
     and the fresh token hangs off the parent so a parent-level cancel
     reaches every descendant while a child-level cancel stays local. *)
  let child ?deadline_s parent =
    { deadline = Float.min parent.deadline (deadline_of deadline_s);
      token = Atomic.make None;
      parent = Some parent }

  let cancel ?(reason = "cancelled") b =
    ignore (Atomic.compare_and_set b.token None (Some reason))

  let rec cancelled b =
    match Atomic.get b.token with
    | Some _ as r -> r
    | None -> ( match b.parent with Some p -> cancelled p | None -> None)

  let remaining_s b =
    if b.deadline = infinity then None
    else Some (Float.max 0.0 (b.deadline -. Unix.gettimeofday ()))
end

(* --- bounded deterministic retry --- *)

module Retry = struct
  (* Transient-failure policy for the one edge that meets transient
     failures, the client's connect to a daemon still binding its
     socket: a bounded number of attempts with *unjittered* exponential
     backoff, so two runs that hit the same transient sequence retry on
     the same schedule.  Every retry is counted under
     guard.retries.<label>; an exhausted policy re-raises the last error
     and counts guard.retries_exhausted.<label>, so a report can never
     pass persistent trouble off as transient. *)

  type t = { attempts : int; base_delay_s : float; max_delay_s : float }

  let v ?(attempts = 3) ?(base_delay_s = 0.01) ?(max_delay_s = 0.5) () =
    if attempts < 1 then
      invalid_arg (Printf.sprintf "Retry.v: attempts %d < 1" attempts);
    if base_delay_s < 0.0 || max_delay_s < 0.0 then
      invalid_arg "Retry.v: negative delay";
    { attempts; base_delay_s; max_delay_s }

  (* delay after the [k]th failed attempt (k >= 1): base * 2^(k-1),
     capped — deterministic, no jitter *)
  let delay_s t k =
    Float.min t.max_delay_s
      (t.base_delay_s *. Float.of_int (1 lsl min 30 (max 0 (k - 1))))

  let run ~policy ?(sleep = Unix.sleepf) ~label ~retryable f =
    let rec go attempt =
      match f () with
      | v -> v
      | exception e when retryable e ->
          if attempt < policy.attempts then begin
            Counter.incr ("guard.retries." ^ label);
            let d = delay_s policy attempt in
            if d > 0.0 then sleep d;
            go (attempt + 1)
          end
          else begin
            Counter.incr ("guard.retries_exhausted." ^ label);
            raise e
          end
    in
    go 1

  (* EINTR is not a failure, it is a scheduling artifact: a signal
     landed while the call was parked.  Every blocking Unix call in the
     serve loops goes through this, so only code that *wants* to see
     the interruption (the accept loop's stop check) handles it
     explicitly. *)
  let rec eintr f =
    try f () with Unix.Unix_error (Unix.EINTR, _, _) -> eintr f
end

(* --- fault injection --- *)

module Fault = struct
  exception Injected of string

  (* every registered site, the recovery its ladder exercises, and the
     DESIGN.md row documenting it; [arm] validates against this list so
     a typo in --inject-fault fails fast instead of silently never
     firing *)
  let sites =
    [ ("smt-exhaust", "SAT search reports Unknown: proved rule degrades to tested-only");
      ("cache-corrupt", "cache entry read as corrupt: evicted and recomputed");
      ("store-crash", "crash mid cache write: torn temp file, entry never published");
      ("pair-eval", "one (variant, app) evaluation fails: pair skipped, fleet continues");
      ("width-smt-exhaust",
       "width-narrowing SMT proofs unavailable: narrowings kept on \
        differential-interpreter evidence (tested-only, identical widths); \
        if that too fails, widths revert to the 16-bit naturals");
      ("configspace-smt-exhaust",
       "configuration-space equivalence proofs unavailable: dead-resource \
        pruning kept on differential-evaluation evidence (tested-only, \
        identical pruned datapaths); a differential failure still reverts");
      ("deadline", "deadline expires mid-phase: phase returns best-so-far") ]

  let site_names = List.map fst sites

  (* A schedule is a set of (site, nth-occurrence) shots, each firing
     once when its site reaches its nth occurrence; the run must
     recover from every one.  [arm "site:nth"] arms a one-shot
     schedule.  [arm_seeded] draws a multi-shot schedule over *all*
     registered sites from a fixed-seed PRNG, so one chaos run
     exercises several recovery ladders at once, and the same seed
     always yields the same schedule — `apex chaos --seed S` runs are
     reproducible down to the report bytes (on a serial, cold-cache
     run, where each site's occurrence order is deterministic). *)
  type shot = { shot_site : string; shot_nth : int; mutable fired : bool }

  type schedule = {
    shots : shot list;
    (* per-site occurrence counters; a shot fires when its site's
       counter reaches the shot's nth occurrence *)
    occurrences : (string, int ref) Hashtbl.t;
    lock : Mutex.t;
  }

  let armed : schedule option ref = ref None

  (* cached flag so Guard.tick only pays for the deadline site while an
     unfired deadline shot remains *)
  let deadline_armed = ref false

  let disarm () =
    armed := None;
    deadline_armed := false

  let unfired_deadline shots =
    List.exists (fun s -> (not s.fired) && s.shot_site = "deadline") shots

  let arm_shots picks =
    let shots =
      List.map
        (fun (site, nth) -> { shot_site = site; shot_nth = nth; fired = false })
        picks
    in
    armed :=
      Some { shots; occurrences = Hashtbl.create 8; lock = Mutex.create () };
    deadline_armed := unfired_deadline shots

  (* 46-bit LCG; the high bits feed the draws, so the weak low bits of
     the recurrence never reach a schedule.  Fixed-width masking keeps
     the sequence identical on every 64-bit platform. *)
  let lcg_next s = ((s * 25214903917) + 11) land 0x3FFFFFFFFFFF

  let draw_schedule ~seed ~faults =
    if faults < 1 then
      invalid_arg (Printf.sprintf "Fault.arm_seeded: faults %d < 1" faults);
    let state = ref (lcg_next (seed land 0x3FFFFFFFFFFF)) in
    let rand bound =
      state := lcg_next !state;
      (!state lsr 16) mod bound
    in
    let n_sites = List.length site_names in
    (* distinct (site, nth) picks; the redraw budget bounds the loop
       when [faults] approaches the number of distinct shots available *)
    let rec draw acc k redraws =
      if k = 0 || redraws = 0 then List.rev acc
      else begin
        let site = List.nth site_names (rand n_sites) in
        let nth = 1 + rand 4 in
        if List.exists (fun (s, n) -> s = site && n = nth) acc then
          draw acc k (redraws - 1)
        else draw ((site, nth) :: acc) (k - 1) (redraws - 1)
      end
    in
    draw [] faults (faults * 32)

  let arm_seeded ~seed ~faults = arm_shots (draw_schedule ~seed ~faults)

  let schedule () =
    match !armed with
    | None -> []
    | Some sc ->
        Mutex.protect sc.lock (fun () ->
            List.map (fun s -> (s.shot_site, s.shot_nth, s.fired)) sc.shots)

  let arm spec =
    (* "seed:S" / "seed:S:N": a seeded multi-shot schedule of N faults
       (default 3) over all registered sites *)
    match String.split_on_char ':' spec with
    | "seed" :: rest -> (
        let parse s =
          match int_of_string_opt s with
          | Some n when n >= 0 -> n
          | _ ->
              invalid_arg
                (Printf.sprintf "Fault.arm: malformed seed spec %S" spec)
        in
        match rest with
        | [ s ] -> arm_seeded ~seed:(parse s) ~faults:3
        | [ s; n ] ->
            let faults = parse n in
            if faults < 1 then
              invalid_arg
                (Printf.sprintf "Fault.arm: fault count %d < 1 in %S" faults
                   spec);
            arm_seeded ~seed:(parse s) ~faults
        | _ ->
            invalid_arg
              (Printf.sprintf "Fault.arm: malformed seed spec %S" spec))
    | _ ->
    let site, nth =
      match String.index_opt spec ':' with
      | None -> (spec, 1)
      | Some i -> (
          let site = String.sub spec 0 i in
          let n = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt n with
          | Some n when n >= 1 -> (site, n)
          | _ ->
              invalid_arg
                (Printf.sprintf
                   "Fault.arm: malformed occurrence count %S in %S" n spec))
    in
    if not (List.mem site site_names) then
      invalid_arg
        (Printf.sprintf "Fault.arm: unknown site %S (registered: %s)" site
           (String.concat ", " site_names));
    arm_shots [ (site, nth) ]

  let arm_from_env () =
    match Sys.getenv_opt "APEX_FAULT" with
    | Some spec when spec <> "" -> arm spec
    | _ -> ()

  (* [fire site] is the registered injection point: true exactly when
     this call is the nth occurrence of [site] for an unfired shot.
     Each shot fires once, under a pool too (the schedule's lock orders
     the occurrences), and deterministically for a fixed schedule on a
     serial run. *)
  let fire site =
    match !armed with
    | None -> false
    | Some sc ->
        Mutex.protect sc.lock (fun () ->
            let c =
              match Hashtbl.find_opt sc.occurrences site with
              | Some r -> r
              | None ->
                  let r = ref 0 in
                  Hashtbl.replace sc.occurrences site r;
                  r
            in
            incr c;
            match
              List.find_opt
                (fun s ->
                  (not s.fired) && s.shot_site = site && s.shot_nth = !c)
                sc.shots
            with
            | Some s ->
                s.fired <- true;
                deadline_armed := unfired_deadline sc.shots;
                Counter.incr "guard.faults_injected";
                Counter.incr ("guard.fault." ^ site);
                true
            | None -> false)

  let inject site = if fire site then raise (Injected site)
end

(* --- the ambient budget and the tick --- *)

(* The budget travels implicitly: threading it through every signature
   between `apex dse` and the innermost CDCL loop would churn the whole
   API surface for a value that is almost always "unlimited".  Instead
   the current budget lives in domain-local storage (exactly like the
   telemetry span context) and Exec.Pool hands it across domains. *)

type ambient = { mutable budget : Budget.t }

let root = ref Budget.unlimited

let key : ambient Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { budget = !root })

let set_root b =
  root := b;
  (Domain.DLS.get key).budget <- b

let current () = (Domain.DLS.get key).budget

let with_budget b f =
  let a = Domain.DLS.get key in
  let saved = a.budget in
  a.budget <- b;
  Fun.protect f ~finally:(fun () -> a.budget <- saved)

let state_of (b : Budget.t) =
  match Budget.cancelled b with
  | Some reason -> Some reason
  | None ->
      if
        (* reaching the deadline counts as expiry: a strict comparison
           makes a zero-second deadline race the clock's resolution (two
           gettimeofday calls in the same microsecond would never trip) *)
        b.Budget.deadline <> infinity
        && Unix.gettimeofday () >= b.Budget.deadline
      then begin
        (* latch the expiry on the token, so siblings sharing this
           budget trip on the cheap token check from now on *)
        Budget.cancel b ~reason:"deadline exceeded";
        Some "deadline exceeded"
      end
      else None

(* the injected-deadline site: never cancel the shared unlimited value
   (it would poison every later budget parented to it) *)
let fire_deadline_fault b =
  !Fault.deadline_armed
  && Fault.fire "deadline"
  && begin
       if not (Budget.is_unlimited b) then
         Budget.cancel b ~reason:"injected deadline";
       true
     end

let tick () =
  let a = Domain.DLS.get key in
  if (not (Budget.is_unlimited a.budget)) || !Fault.deadline_armed then begin
    if fire_deadline_fault a.budget then raise (Cancelled "injected deadline");
    match state_of a.budget with
    | Some reason -> raise (Cancelled reason)
    | None -> ()
  end

(* Non-raising probe for code that prefers a status-code degradation
   (the CDCL loop returns Unknown rather than unwinding its trail). *)
let expired () =
  let a = Domain.DLS.get key in
  if (not (Budget.is_unlimited a.budget)) || !Fault.deadline_armed then
    fire_deadline_fault a.budget || state_of a.budget <> None
  else false

(* --- per-phase deadlines --- *)

let phase_deadlines : (string, float) Hashtbl.t = Hashtbl.create 8

let set_phase_deadline phase seconds =
  Hashtbl.replace phase_deadlines phase seconds

let clear_phase_deadlines () = Hashtbl.reset phase_deadlines

(* Run [f] under the budget a phase deserves: the ambient budget,
   tightened by the phase's configured deadline when one is set.  The
   child keeps its own token, so a phase-level cancel cannot leak into
   the enclosing run. *)
let with_phase phase f =
  match Hashtbl.find_opt phase_deadlines phase with
  | None -> f ()
  | Some s -> with_budget (Budget.child ~deadline_s:s (current ())) f
