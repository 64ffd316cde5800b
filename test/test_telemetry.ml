(* Tests for the telemetry layer: spans, counters, snapshots and the
   JSON report format. *)

module Registry = Apex_telemetry.Registry
module Span = Apex_telemetry.Span
module Counter = Apex_telemetry.Counter
module Report = Apex_telemetry.Report
module Json = Apex_telemetry.Json

let check = Alcotest.check

(* every test owns the global registry: start clean, leave it off *)
let with_registry f () =
  Registry.enable ();
  Registry.reset ();
  Fun.protect f ~finally:(fun () ->
      Registry.disable ();
      Registry.reset ())

let child_names sp =
  List.map
    (fun (c : Registry.span) -> c.name)
    (Registry.children_in_order sp)

let find_child sp name =
  List.find
    (fun (c : Registry.span) -> c.name = name)
    (Registry.children_in_order sp)

(* --- spans --- *)

let test_span_nesting () =
  Span.with_ "outer" (fun () ->
      Span.with_ "first" ignore;
      Span.with_ "second" ignore);
  Span.with_ "outer" (fun () -> Span.with_ "first" ignore);
  let snap = Registry.snapshot () in
  check Alcotest.(list string) "one root child" [ "outer" ]
    (child_names snap.spans);
  let outer = find_child snap.spans "outer" in
  check Alcotest.int "outer aggregated" 2 outer.count;
  (* children keep first-seen order, and same-name spans aggregate *)
  check Alcotest.(list string) "child order" [ "first"; "second" ]
    (child_names outer);
  check Alcotest.int "first aggregated" 2 (find_child outer "first").count;
  check Alcotest.int "second once" 1 (find_child outer "second").count

let test_span_time_accumulates () =
  Span.with_ "slow" (fun () -> ignore (Unix.sleepf 0.01));
  let snap = Registry.snapshot () in
  let slow = find_child snap.spans "slow" in
  check Alcotest.bool "positive duration" true (slow.total_s > 0.0);
  check Alcotest.bool "root covers child" true
    (snap.spans.total_s >= slow.total_s)

let test_span_survives_exception () =
  (try Span.with_ "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  Span.with_ "after" ignore;
  let snap = Registry.snapshot () in
  (* the failed span is recorded and the stack is balanced: "after" is a
     sibling of "boom", not a child *)
  check Alcotest.(list string) "siblings" [ "boom"; "after" ]
    (child_names snap.spans)

(* --- counters, gauges, distributions --- *)

let test_counter_arithmetic () =
  Counter.incr "c";
  Counter.add "c" 41;
  check Alcotest.int "sum" 42 (Counter.get "c");
  check Alcotest.int "missing counter is 0" 0 (Counter.get "absent");
  Counter.set_gauge "g" 2.5;
  check Alcotest.(option (float 1e-9)) "gauge" (Some 2.5)
    (Registry.gauge_get "g")

let test_distribution_stats () =
  List.iter (Counter.observe "d") [ 4.0; 1.0; 7.0 ];
  match Registry.dist_get "d" with
  | None -> Alcotest.fail "distribution missing"
  | Some d ->
      check Alcotest.int "n" 3 d.Registry.n;
      check Alcotest.(float 1e-9) "min" 1.0 d.min_v;
      check Alcotest.(float 1e-9) "max" 7.0 d.max_v;
      check Alcotest.(float 1e-9) "sum" 12.0 d.sum

let test_percentiles () =
  List.iter (Counter.observe "p") (List.init 100 (fun i -> float_of_int (i + 1)));
  (match Registry.dist_get "p" with
  | None -> Alcotest.fail "distribution missing"
  | Some d ->
      check Alcotest.(float 1e-9) "p50 of 1..100" 50.0 (Registry.percentile d 0.5);
      check Alcotest.(float 1e-9) "p95 of 1..100" 95.0 (Registry.percentile d 0.95);
      check Alcotest.(float 1e-9) "p100 is max" 100.0 (Registry.percentile d 1.0);
      (* nearest-rank: p -> ceil(p*n), clamped to the first sample *)
      check Alcotest.(float 1e-9) "p0 is min" 1.0 (Registry.percentile d 0.0));
  (* a single sample is every percentile of itself *)
  Counter.observe "single" 42.0;
  (match Registry.dist_get "single" with
  | None -> Alcotest.fail "single missing"
  | Some d ->
      List.iter
        (fun p ->
          check Alcotest.(float 1e-9)
            (Printf.sprintf "single p%.0f" (100.0 *. p))
            42.0 (Registry.percentile d p))
        [ 0.0; 0.5; 0.95; 1.0 ]);
  (* ties collapse onto the tied value *)
  List.iter (Counter.observe "tied") [ 5.0; 5.0; 5.0; 5.0; 9.0 ];
  match Registry.dist_get "tied" with
  | None -> Alcotest.fail "tied missing"
  | Some d ->
      check Alcotest.(float 1e-9) "tied p50" 5.0 (Registry.percentile d 0.5);
      check Alcotest.(float 1e-9) "tied p95" 9.0 (Registry.percentile d 0.95)

let test_span_gc_gauges () =
  Span.with_ "alloc" (fun () ->
      (* enough allocation that the minor-words delta cannot be zero *)
      ignore (Sys.opaque_identity (Array.init 100_000 float_of_int)));
  let snap = Registry.snapshot () in
  let alloc = find_child snap.spans "alloc" in
  check Alcotest.bool "minor words counted" true (alloc.minor_words > 0.0);
  (* a 100k-float array is well past the minor heap's comfort: it is
     allocated large (major words) or promoted; either way the root
     aggregates its children *)
  check Alcotest.bool "root sums children" true
    (snap.spans.minor_words >= alloc.minor_words)

(* A span is charged the words of its own domain only: a second domain
   allocating ten times as much while the span is open (and joined
   before it closes) adds nothing to it. *)
let test_span_words_own_domain () =
  let alloc n = ignore (Sys.opaque_identity (List.init n Fun.id)) in
  let minor_words () =
    let minor, _, _ = Gc.counters () in
    minor
  in
  let other = ref 0.0 in
  Span.with_ "own" (fun () ->
      let d =
        Domain.spawn (fun () ->
            let w0 = minor_words () in
            alloc 1_000_000;
            minor_words () -. w0)
      in
      alloc 100_000;
      other := Domain.join d);
  let own = (find_child (Registry.snapshot ()).spans "own").minor_words in
  (* 100k list cells are 300k words; the span's own overhead is tiny *)
  check Alcotest.bool "own words counted" true (own >= 300_000.0);
  check Alcotest.bool "other domain allocated at least 5x more" true
    (!other >= 5.0 *. own);
  check Alcotest.bool "other domain's words not charged" true
    (own < 300_000.0 +. (!other /. 10.0))

let test_snapshot_isolated_from_reset () =
  Counter.add "kept" 7;
  Span.with_ "kept_span" ignore;
  let snap = Registry.snapshot () in
  Registry.reset ();
  Counter.add "other" 1;
  (* the snapshot is a deep copy: unaffected by the reset and by new
     activity *)
  check Alcotest.(list (pair string int)) "counters kept" [ ("kept", 7) ]
    snap.counters;
  check Alcotest.(list string) "spans kept" [ "kept_span" ]
    (child_names snap.spans);
  let snap2 = Registry.snapshot () in
  check Alcotest.(list (pair string int)) "new registry" [ ("other", 1) ]
    snap2.counters

let test_tally () =
  (* a tally sees this thread's counters whether or not the registry
     records them, zero-valued keys included; a nested tally also feeds
     the enclosing one; another thread's counters stay out *)
  let pairs = Alcotest.(list (pair string int)) in
  let body () =
    Counter.add "t.a" 2;
    Counter.add "t.zero" 0;
    let (), inner = Counter.tally (fun () -> Counter.incr "t.a") in
    check pairs "inner" [ ("t.a", 1) ] inner;
    Thread.join (Thread.create (fun () -> Counter.incr "t.other") ());
    Counter.add_lazy "t.lazy" (fun () -> 5)
  in
  let expected = [ ("t.a", 3); ("t.lazy", 5); ("t.zero", 0) ] in
  let (), traced = Counter.tally body in
  check pairs "traced" expected traced;
  check Alcotest.int "the registry still records" 3 (Counter.get "t.a");
  Registry.disable ();
  let (), untraced = Counter.tally body in
  check pairs "untraced" expected untraced;
  check Alcotest.int "outside any tally, nothing is kept" 3 (Counter.get "t.a");
  Alcotest.check_raises "an exception closes the tally" Exit (fun () ->
      ignore (Counter.tally (fun () -> raise Exit)));
  let (), after = Counter.tally ignore in
  check pairs "a fresh tally starts empty" [] after

(* --- disabled fast path (the bench guard) --- *)

let test_disabled_is_inert () =
  Registry.disable ();
  Registry.reset ();
  Counter.incr "c";
  Counter.observe "d" 1.0;
  Span.with_ "s" ignore;
  check Alcotest.int "no counter" 0 (Counter.get "c");
  check Alcotest.bool "no dist" true (Registry.dist_get "d" = None);
  check Alcotest.int "no spans allocated" 0 (Registry.spans_created ())

let test_disabled_allocates_no_spans_in_mining () =
  Registry.disable ();
  Registry.reset ();
  (* a real instrumented workload: mining a bundled application must not
     allocate a single span while telemetry is off *)
  let app = Apex_halide.Apps.by_name "gaussian" in
  ignore
    (Apex_mining.Miner.mine
       { Apex_mining.Miner.default_config with max_size = 3 }
       app.Apex_halide.Apps.graph);
  check Alcotest.int "zero spans allocated" 0 (Registry.spans_created ());
  check Alcotest.int "zero counters" 0 (Counter.get "mining.patterns_grown")

(* --- domain safety: the registry is hammered from parallel domains by
   the exec pool; totals must be exact, not approximately right --- *)

let test_concurrent_hammer () =
  let domains = 4 and iters = 2_000 in
  let work () =
    for i = 1 to iters do
      Counter.incr "hammer.c";
      Counter.add "hammer.c" 2;
      Counter.observe "hammer.d" (float_of_int (i mod 10));
      Span.with_ "hammer.outer" (fun () -> Span.with_ "hammer.inner" ignore)
    done
  in
  let spawned = Array.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  Array.iter Domain.join spawned;
  let total = domains * iters in
  check Alcotest.int "counter exact" (3 * total) (Counter.get "hammer.c");
  (match Registry.dist_get "hammer.d" with
  | None -> Alcotest.fail "distribution missing"
  | Some d -> check Alcotest.int "observations exact" total d.Registry.n);
  let snap = Registry.snapshot () in
  let outer = find_child snap.spans "hammer.outer" in
  check Alcotest.int "outer spans exact" total outer.count;
  (* each domain has its own span stack: inner always nests under outer *)
  check Alcotest.int "inner spans exact" total
    (find_child outer "hammer.inner").count

let test_context_handoff () =
  (* the pool hands the submitter's innermost span to workers so their
     spans aggregate under the same parent as a serial run *)
  Span.with_ "submit" (fun () ->
      let ctx = Registry.context () in
      let d =
        Domain.spawn (fun () ->
            Registry.with_context ctx (fun () -> Span.with_ "task" ignore))
      in
      Domain.join d);
  let snap = Registry.snapshot () in
  let submit = find_child snap.spans "submit" in
  check Alcotest.(list string) "task under submit" [ "task" ]
    (child_names submit)

let test_scope_isolation () =
  (* aggregates written inside [with_scope] stay in that scope: the
     global counters, spans and distributions never see them, and two
     scopes never see each other *)
  Counter.incr "shared.counter";
  let sc_a = Registry.new_scope () in
  let sc_b = Registry.new_scope () in
  Registry.with_scope sc_a (fun () ->
      check Alcotest.int "scope A starts clean" 0
        (Counter.get "shared.counter");
      Counter.incr "shared.counter";
      Counter.observe "scope.ms" 1.0;
      Span.with_ "scoped-phase" ignore);
  Registry.with_scope sc_b (fun () ->
      check Alcotest.int "scope B never saw A" 0
        (Counter.get "shared.counter");
      Counter.add "shared.counter" 10);
  (* back in the global scope: only the pre-scope increment remains *)
  check Alcotest.int "global untouched" 1 (Counter.get "shared.counter");
  check Alcotest.bool "global has no scoped dist" true
    (Registry.dist_get "scope.ms" = None);
  let snap = Registry.snapshot () in
  check Alcotest.bool "global has no scoped span" true
    (not (List.exists
            (fun (c : Registry.span) -> c.name = "scoped-phase")
            (Registry.children_in_order snap.spans)));
  (* re-entering a scope finds its aggregates intact *)
  Registry.with_scope sc_a (fun () ->
      check Alcotest.int "scope A kept its count" 1
        (Counter.get "shared.counter");
      let sa = Registry.snapshot () in
      check Alcotest.bool "scope A kept its span" true
        (List.exists
           (fun (c : Registry.span) -> c.name = "scoped-phase")
           (Registry.children_in_order sa.spans)));
  Registry.with_scope sc_b (fun () ->
      check Alcotest.int "scope B kept its count" 10
        (Counter.get "shared.counter"))

let test_scope_shared_across_domains () =
  (* one request's scope is shared by its pool workers: a worker given
     the submitter's context writes into the submitter's scope *)
  let sc = Registry.new_scope () in
  Registry.with_scope sc (fun () ->
      let ctx = Registry.context () in
      let d =
        Domain.spawn (fun () ->
            Registry.with_context ctx (fun () ->
                Counter.incr "worker.counter"))
      in
      Domain.join d;
      check Alcotest.int "worker wrote the scope" 1
        (Counter.get "worker.counter"));
  check Alcotest.int "global never saw it" 0 (Counter.get "worker.counter")

let test_scope_thread_isolation () =
  (* sys-threads sharing one domain do not share a current scope: while
     one thread sits inside [with_scope], another thread's increments
     still land in the global scope.  The serve daemon's connection
     threads rely on this whenever the scheduler executes a request
     inline on the same domain. *)
  let sc = Registry.new_scope () in
  let in_scope = Semaphore.Binary.make false in
  let resume = Semaphore.Binary.make false in
  let worker =
    Thread.create
      (fun () ->
        Registry.with_scope sc (fun () ->
            Counter.incr "thread.counter";
            Semaphore.Binary.release in_scope;
            Semaphore.Binary.acquire resume;
            Counter.incr "thread.counter"))
      ()
  in
  Semaphore.Binary.acquire in_scope;
  (* the worker is parked inside its request scope right now *)
  Counter.incr "thread.counter";
  check Alcotest.int "main thread still writes the global scope" 1
    (Counter.get "thread.counter");
  Semaphore.Binary.release resume;
  Thread.join worker;
  check Alcotest.int "global saw only the main increment" 1
    (Counter.get "thread.counter");
  Registry.with_scope sc (fun () ->
      check Alcotest.int "scope saw only the worker increments" 2
        (Counter.get "thread.counter"))

(* --- JSON encoder / parser --- *)

let roundtrip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v'
  | Error m -> Alcotest.failf "roundtrip parse failed: %s" m

let test_json_roundtrip_values () =
  let v =
    Json.Obj
      [ ("s", Json.String "a \"quoted\"\nline");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Int 0 ]) ]
  in
  match roundtrip v with
  | Json.Obj fields ->
      check Alcotest.bool "string" true
        (List.assoc "s" fields = Json.String "a \"quoted\"\nline");
      check Alcotest.bool "int" true (List.assoc "i" fields = Json.Int (-42));
      check Alcotest.bool "float" true
        (List.assoc "f" fields = Json.Float 1.5);
      (* non-finite floats are emitted as null to stay valid JSON *)
      check Alcotest.bool "nan -> null" true
        (List.assoc "nan" fields = Json.Null);
      check Alcotest.bool "list" true
        (List.assoc "l" fields
        = Json.List [ Json.Bool true; Json.Null; Json.Int 0 ])
  | _ -> Alcotest.fail "roundtrip did not yield an object"

let test_json_parser_rejects_garbage () =
  let bad s =
    match Json.of_string s with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "bare word" true (bad "junk");
  check Alcotest.bool "unterminated" true (bad "{\"a\": 1");
  check Alcotest.bool "trailing" true (bad "{} extra")

let test_report_json_roundtrip () =
  Counter.add "mining.patterns_grown" 11;
  Counter.set_gauge "g" 0.5;
  Counter.observe "d" 3.0;
  Span.with_ "phase" (fun () -> Span.with_ "sub" ignore);
  let json = Report.to_json (Registry.snapshot ()) in
  let parsed = roundtrip json in
  check
    Alcotest.(option string)
    "schema" (Some Report.schema_version)
    (Option.bind (Json.member "schema" parsed) Json.to_string_opt);
  let counter name =
    Option.bind (Json.member "counters" parsed) (Json.member name)
    |> Fun.flip Option.bind Json.to_int_opt
  in
  check
    Alcotest.(option int)
    "counter survives" (Some 11)
    (counter "mining.patterns_grown");
  let span_name =
    Option.bind (Json.member "spans" parsed) (Json.member "children")
    |> Fun.flip Option.bind Json.to_list_opt
    |> Fun.flip Option.bind (function c :: _ -> Some c | [] -> None)
    |> Fun.flip Option.bind (Json.member "name")
    |> Fun.flip Option.bind Json.to_string_opt
  in
  check Alcotest.(option string) "span tree survives" (Some "phase") span_name;
  (* the profile report carries the new observability sections: per-span
     GC deltas and distribution percentiles *)
  let gc =
    Option.bind (Json.member "spans" parsed) (Json.member "gc")
    |> Fun.flip Option.bind (Json.member "minor_words")
  in
  check Alcotest.bool "gc section present" true (gc <> None);
  let p50 =
    Option.bind (Json.member "distributions" parsed) (Json.member "d")
    |> Fun.flip Option.bind (Json.member "p50")
  in
  check Alcotest.bool "dist p50 present" true
    (p50 = Some (Json.Float 3.0))

(* --- trace events and the Chrome exporter --- *)

module Chrome = Apex_telemetry.Chrome

let test_events_off_by_default () =
  Span.with_ "quiet" ignore;
  check Alcotest.int "no events recorded" 0 (List.length (Registry.events ()))

let test_trace_events_multi_domain () =
  Registry.set_events true;
  Fun.protect ~finally:(fun () -> Registry.set_events false) @@ fun () ->
  Span.with_ "outer" (fun () ->
      Span.with_ "inner" (fun () -> Unix.sleepf 0.001);
      let ctx = Registry.context () in
      let d =
        Domain.spawn (fun () ->
            Registry.with_context ctx (fun () -> Span.with_ "worker" ignore))
      in
      Domain.join d);
  let events = Registry.events () in
  check Alcotest.int "three events" 3 (List.length events);
  List.iter
    (fun (e : Registry.event) ->
      check Alcotest.bool (e.ev_name ^ " ts non-negative") true (e.ts_us >= 0.0);
      check Alcotest.bool (e.ev_name ^ " dur non-negative") true
        (e.dur_us >= 0.0))
    events;
  let tids =
    List.sort_uniq compare (List.map (fun (e : Registry.event) -> e.tid) events)
  in
  check Alcotest.int "worker domain has its own tid" 2 (List.length tids);
  (* nesting is recovered from time containment per tid row *)
  let find name =
    List.find (fun (e : Registry.event) -> e.ev_name = name) events
  in
  let outer = find "outer" in
  let inner = find "inner" in
  check Alcotest.int "outer and inner share a row" outer.Registry.tid
    inner.Registry.tid;
  check Alcotest.bool "inner contained in outer" true
    (inner.Registry.ts_us +. 1e-3 >= outer.Registry.ts_us
    && inner.Registry.ts_us +. inner.Registry.dur_us
       <= outer.Registry.ts_us +. outer.Registry.dur_us +. 1e-3);
  (* the exporter emits well-formed catapult JSON: it parses, carries
     one thread_name metadata record per tid, and one complete ("X")
     event per span occurrence *)
  let json = roundtrip (Chrome.to_json events) in
  match Option.bind (Json.member "traceEvents" json) Json.to_list_opt with
  | None -> Alcotest.fail "no traceEvents array"
  | Some evs ->
      let phases =
        List.filter_map
          (fun e -> Option.bind (Json.member "ph" e) Json.to_string_opt)
          evs
      in
      check Alcotest.int "thread metadata per tid" 2
        (List.length (List.filter (String.equal "M") phases));
      check Alcotest.int "one X event per span" 3
        (List.length (List.filter (String.equal "X") phases));
      List.iter
        (fun e ->
          match Json.member "ph" e with
          | Some (Json.String "X") ->
              let non_negative field =
                match Json.member field e with
                | Some (Json.Float f) -> f >= 0.0
                | Some (Json.Int i) -> i >= 0
                | _ -> false
              in
              check Alcotest.bool "exported ts non-negative" true
                (non_negative "ts");
              check Alcotest.bool "exported dur non-negative" true
                (non_negative "dur")
          | _ -> ())
        evs

let () =
  Alcotest.run "telemetry"
    [ ( "spans",
        [ Alcotest.test_case "nesting and aggregation" `Quick
            (with_registry test_span_nesting);
          Alcotest.test_case "time accumulates" `Quick
            (with_registry test_span_time_accumulates);
          Alcotest.test_case "exception safety" `Quick
            (with_registry test_span_survives_exception) ] );
      ( "counters",
        [ Alcotest.test_case "arithmetic" `Quick
            (with_registry test_counter_arithmetic);
          Alcotest.test_case "distribution stats" `Quick
            (with_registry test_distribution_stats);
          Alcotest.test_case "percentiles" `Quick
            (with_registry test_percentiles);
          Alcotest.test_case "span gc gauges" `Quick
            (with_registry test_span_gc_gauges);
          Alcotest.test_case "span words are its own domain's" `Quick
            (with_registry test_span_words_own_domain);
          Alcotest.test_case "snapshot isolation" `Quick
            (with_registry test_snapshot_isolated_from_reset);
          Alcotest.test_case "tally" `Quick (with_registry test_tally) ] );
      ( "disabled",
        [ Alcotest.test_case "inert registry" `Quick
            (with_registry test_disabled_is_inert);
          Alcotest.test_case "no span allocation in mining" `Quick
            (with_registry test_disabled_allocates_no_spans_in_mining) ] );
      ( "domains",
        [ Alcotest.test_case "concurrent hammer" `Quick
            (with_registry test_concurrent_hammer);
          Alcotest.test_case "context hand-off" `Quick
            (with_registry test_context_handoff) ] );
      ( "scopes",
        [ Alcotest.test_case "isolation" `Quick
            (with_registry test_scope_isolation);
          Alcotest.test_case "shared across domains" `Quick
            (with_registry test_scope_shared_across_domains);
          Alcotest.test_case "isolated across sys-threads" `Quick
            (with_registry test_scope_thread_isolation) ] );
      ( "json",
        [ Alcotest.test_case "value roundtrip" `Quick test_json_roundtrip_values;
          Alcotest.test_case "parser rejects garbage" `Quick
            test_json_parser_rejects_garbage;
          Alcotest.test_case "report roundtrip" `Quick
            (with_registry test_report_json_roundtrip) ] );
      ( "chrome",
        [ Alcotest.test_case "events off by default" `Quick
            (with_registry test_events_off_by_default);
          Alcotest.test_case "multi-domain trace export" `Quick
            (with_registry test_trace_events_multi_domain) ] ) ]
