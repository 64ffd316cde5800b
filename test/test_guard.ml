(* Tests for the resource governor: budget algebra, cooperative
   cancellation, the degradation ladders of the exact searches, and the
   deterministic fault-injection harness (one test per fault class, plus
   deadline expiry mid-phase). *)

module Guard = Apex_guard
module Budget = Apex_guard.Budget
module Fault = Apex_guard.Fault
module Outcome = Apex_guard.Outcome
module Clique = Apex_merging.Clique
module Sat = Apex_smt.Sat
module Pool = Apex_exec.Pool
module Store = Apex_exec.Store
module Registry = Apex_telemetry.Registry
module Counter = Apex_telemetry.Counter

let check = Alcotest.check

(* Every test must leave the guard's global state as it found it: the
   ambient budget is scoped by [with_budget] already, but an armed fault
   or a phase deadline would leak into the next test. *)
let guarded f () =
  Registry.enable ();
  Registry.reset ();
  Fun.protect f ~finally:(fun () ->
      Fault.disarm ();
      Guard.clear_phase_deadlines ();
      Registry.disable ();
      Registry.reset ())

(* --- budgets --- *)

let test_unlimited_is_physical () =
  check Alcotest.bool "the shared constant" true
    (Budget.is_unlimited Budget.unlimited);
  (* a fresh token-only budget is NOT unlimited: its token is a live
     cancellation point, so tick must keep checking it *)
  check Alcotest.bool "fresh budget" false (Budget.is_unlimited (Budget.v ()));
  (* under the default ambient budget the tick is a no-op *)
  for _ = 1 to 1000 do
    Guard.tick ()
  done

let test_deadline_expiry () =
  let b = Budget.v ~deadline_s:0.0 () in
  Guard.with_budget b (fun () ->
      match Guard.tick () with
      | () -> Alcotest.fail "expired deadline should trip the first tick"
      | exception Guard.Cancelled msg ->
          check Alcotest.string "reason" "deadline exceeded" msg);
  (* the expiry latched on the token: visible without reading the clock *)
  check Alcotest.bool "latched" true (Budget.cancelled b <> None)

let test_cancel_latches_first_reason () =
  let b = Budget.v () in
  check (Alcotest.option Alcotest.string) "initially live" None
    (Budget.cancelled b);
  Budget.cancel ~reason:"first" b;
  Budget.cancel ~reason:"second" b;
  check (Alcotest.option Alcotest.string) "first reason wins" (Some "first")
    (Budget.cancelled b);
  Guard.with_budget b (fun () ->
      check Alcotest.bool "expired probe does not raise" true (Guard.expired ()))

let test_child_derivation () =
  let parent = Budget.v ~deadline_s:1000.0 () in
  let child = Budget.child ~deadline_s:5.0 parent in
  (* the child's own, tighter deadline wins *)
  (match Budget.remaining_s child with
  | Some s -> check Alcotest.bool "tightened deadline" true (s <= 5.0)
  | None -> Alcotest.fail "child should carry a deadline");
  (* a loose child keeps the parent's deadline *)
  let loose = Budget.child ~deadline_s:1e6 parent in
  (match Budget.remaining_s loose with
  | Some s -> check Alcotest.bool "parent's deadline kept" true (s <= 1000.0)
  | None -> Alcotest.fail "loose child should inherit the parent deadline");
  (* child-level cancel stays local ... *)
  let c1 = Budget.child parent and c2 = Budget.child parent in
  Budget.cancel ~reason:"local" c1;
  check Alcotest.bool "sibling unaffected" true (Budget.cancelled c2 = None);
  check Alcotest.bool "parent unaffected" true (Budget.cancelled parent = None);
  (* ... while a parent-level cancel reaches every descendant *)
  Budget.cancel ~reason:"fleet stop" parent;
  check (Alcotest.option Alcotest.string) "reaches children"
    (Some "fleet stop") (Budget.cancelled c2)

let test_remaining_probe () =
  check Alcotest.bool "no deadline" true
    (Budget.remaining_s (Budget.v ()) = None);
  match Budget.remaining_s (Budget.v ~deadline_s:60.0 ()) with
  | Some s -> check Alcotest.bool "about a minute" true (s > 55.0 && s <= 60.0)
  | None -> Alcotest.fail "deadline budget must report remaining time"

(* --- outcomes --- *)

let test_outcome_algebra () =
  let d = Outcome.Degraded Outcome.Fuel in
  let s = Outcome.Skipped Outcome.Deadline in
  check Alcotest.bool "exact" true (Outcome.is_exact Outcome.Exact);
  check Alcotest.bool "degraded not exact" false (Outcome.is_exact d);
  check Alcotest.string "worst(exact, degraded)" "degraded:fuel"
    (Outcome.to_string (Outcome.worst Outcome.Exact d));
  check Alcotest.string "worst(degraded, skipped)" "skipped:deadline"
    (Outcome.to_string (Outcome.worst d s));
  check Alcotest.string "fault reason" "degraded:fault:store-crash"
    (Outcome.to_string (Outcome.Degraded (Outcome.Fault "store-crash")))

let test_outcome_counters () =
  Outcome.record ~phase:"t" Outcome.Exact;
  Outcome.record ~phase:"t" Outcome.Exact;
  Outcome.record ~phase:"t" (Outcome.Degraded Outcome.Deadline);
  Outcome.record ~phase:"t" (Outcome.Skipped (Outcome.Fault "pair-eval"));
  check Alcotest.int "exact" 2 (Counter.get "guard.outcome.exact");
  check Alcotest.int "degraded" 1 (Counter.get "guard.outcome.degraded");
  check Alcotest.int "skipped" 1 (Counter.get "guard.outcome.skipped");
  check Alcotest.int "phase breakdown" 1
    (Counter.get "guard.degraded.t.deadline")

(* --- fault arming --- *)

let test_arm_validation () =
  Alcotest.check_raises "unknown site"
    (Invalid_argument
       (Printf.sprintf "Fault.arm: unknown site %S (registered: %s)" "typo"
          (String.concat ", " Fault.site_names)))
    (fun () -> Fault.arm "typo");
  (match Fault.arm "smt-exhaust:0" with
  | () -> Alcotest.fail "zero occurrence count must be rejected"
  | exception Invalid_argument _ -> ());
  check Alcotest.bool "nothing armed after failed arms" true
    (Fault.schedule () = [])

let test_fire_nth_once () =
  Fault.arm "pair-eval:3";
  check Alcotest.bool "1st occurrence" false (Fault.fire "pair-eval");
  check Alcotest.bool "other sites never fire" false (Fault.fire "smt-exhaust");
  check Alcotest.bool "2nd occurrence" false (Fault.fire "pair-eval");
  check Alcotest.bool "3rd occurrence fires" true (Fault.fire "pair-eval");
  (* one-shot: the shot is spent so the run can recover *)
  check Alcotest.bool "spent after firing" true
    (Fault.schedule () = [ ("pair-eval", 3, true) ]);
  check Alcotest.bool "4th occurrence" false (Fault.fire "pair-eval");
  check Alcotest.int "counted" 1 (Counter.get "guard.faults_injected");
  check Alcotest.int "counted per site" 1 (Counter.get "guard.fault.pair-eval")

let test_deadline_shot_once () =
  (* a one-shot deadline fault is a one-shot schedule: under the
     unlimited budget the 3rd tick raises, and once the shot is spent
     tick is back to its no-op *)
  Fault.arm "deadline:3";
  Guard.tick ();
  Guard.tick ();
  (match Guard.tick () with
  | () -> Alcotest.fail "the 3rd tick must fire the deadline shot"
  | exception Guard.Cancelled m ->
      check Alcotest.string "reason" "injected deadline" m);
  for _ = 1 to 100 do
    Guard.tick ()
  done;
  check Alcotest.bool "spent" true
    (Fault.schedule () = [ ("deadline", 3, true) ]);
  check Alcotest.int "counted per site" 1 (Counter.get "guard.fault.deadline");
  check Alcotest.bool "unlimited budget never cancelled" true
    (Budget.cancelled Budget.unlimited = None)

let test_arm_from_env () =
  Unix.putenv "APEX_FAULT" "cache-corrupt:2";
  Fun.protect
    (fun () ->
      Fault.arm_from_env ();
      check Alcotest.bool "armed from APEX_FAULT" true
        (Fault.schedule () = [ ("cache-corrupt", 2, false) ]))
    ~finally:(fun () -> Unix.putenv "APEX_FAULT" "")

(* --- bounded deterministic retry --- *)

let test_retry_backoff_schedule () =
  let p = Guard.Retry.v ~attempts:8 ~base_delay_s:0.01 ~max_delay_s:0.5 () in
  (* unjittered doubling from the base, capped: 10, 20, 40, ... 500 ms *)
  check (Alcotest.float 1e-12) "1st retry" 0.01 (Guard.Retry.delay_s p 1);
  check (Alcotest.float 1e-12) "2nd retry" 0.02 (Guard.Retry.delay_s p 2);
  check (Alcotest.float 1e-12) "5th retry" 0.16 (Guard.Retry.delay_s p 5);
  check (Alcotest.float 1e-12) "capped" 0.5 (Guard.Retry.delay_s p 7);
  (match Guard.Retry.v ~attempts:0 () with
  | _ -> Alcotest.fail "attempts 0 must be rejected"
  | exception Invalid_argument _ -> ())

let test_retry_recovers_and_counts () =
  let failures = ref 2 and slept = ref [] in
  let v =
    Guard.Retry.run
      ~policy:(Guard.Retry.v ~attempts:5 ~base_delay_s:0.01 ())
      ~sleep:(fun d -> slept := d :: !slept)
      ~label:"unit" ~retryable:(function Failure _ -> true | _ -> false)
      (fun () ->
        if !failures > 0 then begin
          decr failures;
          failwith "transient"
        end;
        42)
  in
  check Alcotest.int "succeeded after retries" 42 v;
  check (Alcotest.list (Alcotest.float 1e-12)) "deterministic backoff"
    [ 0.02; 0.01 ] !slept;
  check Alcotest.int "retries counted" 2 (Counter.get "guard.retries.unit");
  check Alcotest.int "no exhaustion" 0
    (Counter.get "guard.retries_exhausted.unit")

let test_retry_exhaustion_reraises () =
  let calls = ref 0 in
  (match
     Guard.Retry.run
       ~policy:(Guard.Retry.v ~attempts:3 ~base_delay_s:0.0 ())
       ~sleep:(fun _ -> ())
       ~label:"unit" ~retryable:(function Failure _ -> true | _ -> false)
       (fun () ->
         incr calls;
         failwith "persistent")
   with
  | _ -> Alcotest.fail "exhaustion must re-raise"
  | exception Failure m -> check Alcotest.string "last error" "persistent" m);
  check Alcotest.int "attempts bounded" 3 !calls;
  check Alcotest.int "exhaustion counted" 1
    (Counter.get "guard.retries_exhausted.unit");
  (* non-retryable errors propagate without a single retry *)
  let calls = ref 0 in
  (match
     Guard.Retry.run ~policy:(Guard.Retry.v ()) ~label:"unit2"
       ~retryable:(function Failure _ -> true | _ -> false)
       (fun () ->
         incr calls;
         invalid_arg "fail fast")
   with
  | _ -> Alcotest.fail "non-retryable must propagate"
  | exception Invalid_argument _ -> ());
  check Alcotest.int "no retry on non-retryable" 1 !calls

let test_retry_eintr () =
  let left = ref 2 in
  let v =
    Guard.Retry.eintr (fun () ->
        if !left > 0 then begin
          decr left;
          raise (Unix.Unix_error (Unix.EINTR, "read", ""))
        end;
        7)
  in
  check Alcotest.int "rides out EINTR" 7 v

(* --- seeded multi-shot schedules --- *)

let test_seeded_schedule_deterministic () =
  Fault.arm_seeded ~seed:42 ~faults:5;
  let s1 = Fault.schedule () in
  Fault.disarm ();
  Fault.arm_seeded ~seed:42 ~faults:5;
  let s2 = Fault.schedule () in
  check Alcotest.int "5 shots drawn" 5 (List.length s1);
  check Alcotest.bool "same seed, same schedule" true (s1 = s2);
  (* every shot targets a registered site at a sane occurrence, and the
     (site, nth) picks are distinct *)
  List.iter
    (fun (site, nth, fired) ->
      check Alcotest.bool "registered site" true
        (List.mem site Fault.site_names);
      check Alcotest.bool "occurrence in range" true (nth >= 1 && nth <= 4);
      check Alcotest.bool "fresh" false fired)
    s1;
  let keys = List.map (fun (s, n, _) -> (s, n)) s1 in
  check Alcotest.int "distinct picks" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  Fault.disarm ();
  Fault.arm_seeded ~seed:43 ~faults:5;
  check Alcotest.bool "different seed, different schedule" true
    (Fault.schedule () <> s1)

let test_seeded_multi_shot_firing () =
  Fault.arm_seeded ~seed:7 ~faults:6;
  let shots = Fault.schedule () in
  (* replay each site's occurrence stream by hand: exactly the
     scheduled (site, nth) pairs fire, each one exactly once *)
  let fired =
    List.concat_map
      (fun site ->
        List.filter_map
          (fun k -> if Fault.fire site then Some (site, k) else None)
          (List.init 6 (fun i -> i + 1)))
      Fault.site_names
  in
  let expected =
    List.sort compare (List.map (fun (s, n, _) -> (s, n)) shots)
  in
  check Alcotest.bool "fired exactly the schedule" true
    (List.sort compare fired = expected);
  check Alcotest.int "each shot counted" (List.length shots)
    (Counter.get "guard.faults_injected");
  (* all shots spent: replaying the streams again fires nothing *)
  List.iter
    (fun site ->
      List.iter
        (fun _ -> check Alcotest.bool "spent" false (Fault.fire site))
        (List.init 6 Fun.id))
    Fault.site_names;
  List.iter
    (fun (_, _, fired) -> check Alcotest.bool "marked fired" true fired)
    (Fault.schedule ())

let test_seeded_arm_spec () =
  Fault.arm "seed:11:4";
  check Alcotest.int "seed:S:N draws N" 4 (List.length (Fault.schedule ()));
  Fault.disarm ();
  Fault.arm "seed:11";
  check Alcotest.int "seed:S defaults to 3" 3 (List.length (Fault.schedule ()));
  Fault.disarm ();
  check Alcotest.int "disarm clears the schedule" 0
    (List.length (Fault.schedule ()));
  (match Fault.arm "seed:nope" with
  | () -> Alcotest.fail "malformed seed must be rejected"
  | exception Invalid_argument _ -> ());
  (match Fault.arm "seed:1:0" with
  | () -> Alcotest.fail "zero shots must be rejected"
  | exception Invalid_argument _ -> ())

(* --- degradation ladders of the exact searches --- *)

(* a clique problem with enough structure that the search takes > a few
   nodes: k disjoint cliques of size m plus some cross edges *)
let clique_problem () =
  let n = 15 in
  let weight = Array.init n (fun i -> 1.0 +. float_of_int ((i * 7) mod 5)) in
  let adj = Array.make_matrix n n false in
  let connect i j =
    adj.(i).(j) <- true;
    adj.(j).(i) <- true
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      (* same residue class mod 3 → clique; plus a sprinkling of
         deterministic cross edges *)
      if i mod 3 = j mod 3 || (i * j) mod 7 = 1 then connect i j
    done
  done;
  { Clique.n; weight; adj }

let assert_clique (p : Clique.problem) members =
  List.iteri
    (fun i u ->
      List.iteri
        (fun j v ->
          if i < j && not p.Clique.adj.(u).(v) then
            Alcotest.failf "members %d and %d are not adjacent" u v)
        members)
    members

let test_clique_budget_fallback () =
  let p = clique_problem () in
  let greedy_w =
    List.fold_left (fun a v -> a +. p.Clique.weight.(v)) 0.0 (Clique.greedy p)
  in
  (* budget so small the search cannot finish: the warm start guarantees
     the answer is still a feasible clique at least as heavy as greedy *)
  let s = Clique.solve ~budget:3 p in
  check Alcotest.bool "not optimal" false s.Clique.optimal;
  check Alcotest.string "degraded on fuel" "degraded:fuel"
    (Outcome.to_string s.Clique.outcome);
  assert_clique p s.Clique.members;
  check Alcotest.bool "never lighter than greedy" true
    (s.Clique.weight >= greedy_w -. 1e-9);
  (* and the full search on the same problem is strictly better-or-equal *)
  let full = Clique.solve p in
  check Alcotest.bool "full search optimal" true full.Clique.optimal;
  check Alcotest.bool "full beats starved" true
    (full.Clique.weight >= s.Clique.weight -. 1e-9)

let test_clique_deadline_fallback () =
  let p = clique_problem () in
  let s =
    Guard.with_budget
      (Budget.v ~deadline_s:0.0 ())
      (fun () -> Clique.solve p)
  in
  check Alcotest.bool "not optimal" false s.Clique.optimal;
  check Alcotest.string "degraded on deadline" "degraded:deadline"
    (Outcome.to_string s.Clique.outcome);
  assert_clique p s.Clique.members;
  check Alcotest.bool "warm start survives" true (s.Clique.members <> [])

let test_deadline_mid_phase () =
  (* a per-phase deadline tightens the ambient budget only inside the
     phase: the search degrades, the enclosing budget stays live *)
  Guard.set_phase_deadline "unit-test-phase" 0.0;
  let p = clique_problem () in
  let s = Guard.with_phase "unit-test-phase" (fun () -> Clique.solve p) in
  check Alcotest.bool "not optimal" false s.Clique.optimal;
  check Alcotest.string "degraded on deadline" "degraded:deadline"
    (Outcome.to_string s.Clique.outcome);
  assert_clique p s.Clique.members;
  (* outside the phase the ambient budget never tripped *)
  Guard.tick ();
  check Alcotest.bool "ambient budget live" false (Guard.expired ())

(* --- fault classes, one test each --- *)

let test_fault_smt_exhaust () =
  let s = Sat.create () in
  let v = Sat.new_var s in
  Sat.add_clause s [ Sat.pos v ];
  Fault.arm "smt-exhaust";
  (match Sat.solve s with
  | Sat.Unknown -> ()
  | _ -> Alcotest.fail "injected exhaustion must report Unknown");
  check Alcotest.bool "degraded outcome recorded" true
    (Counter.get "guard.outcome.degraded" >= 1);
  (* one-shot: the next solve of the same instance succeeds *)
  match Sat.solve s with
  | Sat.Sat -> ()
  | _ -> Alcotest.fail "recovery solve must succeed"

let with_scratch_store f () =
  let dir = Filename.temp_file "apex-guard-test" "" in
  Sys.remove dir;
  Store.set_dir dir;
  Store.set_enabled true;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect f ~finally:(fun () ->
      Store.set_enabled false;
      if Sys.file_exists dir then rm dir)

let test_fault_cache_corrupt =
  with_scratch_store (fun () ->
      let key = Store.key ~version:"t1" [ "corrupt" ] in
      Store.store ~ns:"guardtest" ~key 42;
      check (Alcotest.option Alcotest.int) "clean hit" (Some 42)
        (Store.lookup ~ns:"guardtest" ~key);
      Fault.arm "cache-corrupt";
      (* the armed hit is treated as corrupt: evicted, reported as a miss *)
      check (Alcotest.option Alcotest.int) "corrupt read degrades to miss"
        None
        (Store.lookup ~ns:"guardtest" ~key);
      check Alcotest.int "counted" 1 (Counter.get "exec.cache_corrupt");
      check Alcotest.bool "degraded outcome recorded" true
        (Counter.get "guard.outcome.degraded" >= 1);
      (* the poisoned entry is gone; a recompute-and-store recovers *)
      check (Alcotest.option Alcotest.int) "evicted" None
        (Store.lookup ~ns:"guardtest" ~key);
      Store.store ~ns:"guardtest" ~key 42;
      check (Alcotest.option Alcotest.int) "recovered" (Some 42)
        (Store.lookup ~ns:"guardtest" ~key))

let test_fault_store_crash =
  with_scratch_store (fun () ->
      let key = Store.key ~version:"t1" [ "crash" ] in
      Fault.arm "store-crash";
      (* the write "crashes" after the header + half the payload: the
         torn temp file must never become a visible entry *)
      Store.store ~ns:"guardtest" ~key [ 1; 2; 3 ];
      check Alcotest.bool "degraded outcome recorded" true
        (Counter.get "guard.outcome.degraded" >= 1);
      check
        (Alcotest.option (Alcotest.list Alcotest.int))
        "torn write is a miss, not garbage" None
        (Store.lookup ~ns:"guardtest" ~key);
      (* the torn temp file is invisible to stats/gc enumeration *)
      List.iter
        (fun (s : Store.ns_stats) ->
          if s.ns = "guardtest" then
            check Alcotest.int "no visible entries" 0 s.entries)
        (Store.stats ());
      (* a later write of the same key publishes atomically *)
      Store.store ~ns:"guardtest" ~key [ 1; 2; 3 ];
      check
        (Alcotest.option (Alcotest.list Alcotest.int))
        "recovered" (Some [ 1; 2; 3 ])
        (Store.lookup ~ns:"guardtest" ~key))

let with_jobs n f () =
  Pool.set_jobs n;
  Fun.protect f ~finally:(fun () -> Pool.set_jobs 1)

let test_budget_crosses_pool_domains =
  with_jobs 4 (fun () ->
      (* a cancelled ambient budget must be visible from pool workers:
         the hand-off mirrors the telemetry context *)
      let b = Budget.v () in
      Budget.cancel ~reason:"fleet stop" b;
      let ys =
        Guard.with_budget b (fun () ->
            Pool.map (fun x -> if Guard.expired () then -1 else x)
              (List.init 16 Fun.id))
      in
      check
        Alcotest.(list int)
        "every worker saw the cancellation"
        (List.init 16 (fun _ -> -1))
        ys)

let test_two_ambient_budgets_concurrent_domains () =
  (* Two budgets live at once, each ambient on its own domain: one
     trips on its expired deadline, the other keeps ticking untouched
     until its own token is cancelled with a distinct reason.  The DLS
     ambient is per-domain state — neither domain's trip may leak into
     the other's tick. *)
  let b1 = Budget.v ~deadline_s:0.0 () in
  let b2 = Budget.v () in
  let d1 =
    Domain.spawn (fun () ->
        Guard.with_budget b1 (fun () ->
            let rec go n =
              if n > 10_000 then `Never_tripped
              else
                match Guard.tick () with
                | () -> go (n + 1)
                | exception Guard.Cancelled m -> `Tripped (n, m)
            in
            go 0))
  in
  let d2 =
    Domain.spawn (fun () ->
        Guard.with_budget b2 (fun () ->
            (* b1's expiry latches on b1's own token: it must not reach
               this budget *)
            for _ = 1 to 1_000 do
              Guard.tick ()
            done;
            Budget.cancel ~reason:"domain-2 local stop" b2;
            match Guard.tick () with
            | () -> `Never_tripped
            | exception Guard.Cancelled m -> `Tripped m))
  in
  (match Domain.join d1 with
  | `Tripped (n, m) ->
      check Alcotest.string "b1 tripped on its deadline" "deadline exceeded" m;
      check Alcotest.int "on the first tick" 0 n
  | `Never_tripped -> Alcotest.fail "b1's deadline never tripped");
  (match Domain.join d2 with
  | `Tripped m ->
      check Alcotest.string "b2 tripped only on its own cancel"
        "domain-2 local stop" m
  | `Never_tripped -> Alcotest.fail "b2's cancel never tripped");
  (* the main domain's ambient was never touched by either *)
  check Alcotest.bool "main ambient still unlimited" true
    (Budget.is_unlimited (Guard.current ()))

let () =
  Alcotest.run "guard"
    [ ( "budget",
        [ Alcotest.test_case "unlimited is physical" `Quick
            (guarded test_unlimited_is_physical);
          Alcotest.test_case "deadline expiry" `Quick
            (guarded test_deadline_expiry);
          Alcotest.test_case "cancel latches first reason" `Quick
            (guarded test_cancel_latches_first_reason);
          Alcotest.test_case "child derivation" `Quick
            (guarded test_child_derivation);
          Alcotest.test_case "remaining-time probe" `Quick
            (guarded test_remaining_probe) ] );
      ( "outcome",
        [ Alcotest.test_case "algebra" `Quick (guarded test_outcome_algebra);
          Alcotest.test_case "counters" `Quick (guarded test_outcome_counters)
        ] );
      ( "fault-arming",
        [ Alcotest.test_case "validation" `Quick (guarded test_arm_validation);
          Alcotest.test_case "nth occurrence, one-shot" `Quick
            (guarded test_fire_nth_once);
          Alcotest.test_case "deadline shot fires once" `Quick
            (guarded test_deadline_shot_once);
          Alcotest.test_case "APEX_FAULT env" `Quick (guarded test_arm_from_env)
        ] );
      ( "retry",
        [ Alcotest.test_case "backoff schedule" `Quick
            (guarded test_retry_backoff_schedule);
          Alcotest.test_case "recovers and counts" `Quick
            (guarded test_retry_recovers_and_counts);
          Alcotest.test_case "exhaustion re-raises" `Quick
            (guarded test_retry_exhaustion_reraises);
          Alcotest.test_case "eintr wrapper" `Quick
            (guarded test_retry_eintr) ] );
      ( "seeded-schedules",
        [ Alcotest.test_case "deterministic draw" `Quick
            (guarded test_seeded_schedule_deterministic);
          Alcotest.test_case "multi-shot firing" `Quick
            (guarded test_seeded_multi_shot_firing);
          Alcotest.test_case "seed:S:N arm spec" `Quick
            (guarded test_seeded_arm_spec) ] );
      ( "degradation",
        [ Alcotest.test_case "clique budget fallback" `Quick
            (guarded test_clique_budget_fallback);
          Alcotest.test_case "clique deadline fallback" `Quick
            (guarded test_clique_deadline_fallback);
          Alcotest.test_case "deadline expiry mid-phase" `Quick
            (guarded test_deadline_mid_phase) ] );
      ( "fault-classes",
        [ Alcotest.test_case "smt-exhaust" `Quick (guarded test_fault_smt_exhaust);
          Alcotest.test_case "cache-corrupt" `Quick
            (guarded test_fault_cache_corrupt);
          Alcotest.test_case "store-crash" `Quick
            (guarded test_fault_store_crash);
          Alcotest.test_case "budget crosses pool domains" `Quick
            (guarded test_budget_crosses_pool_domains);
          Alcotest.test_case "two ambient budgets on two domains" `Quick
            (guarded test_two_ambient_budgets_concurrent_domains) ] ) ]
