(* Tests for the benchmark-trajectory snapshots: the diff gate's exact
   counters and allocation bounds, and — the expensive but load-bearing
   part — the determinism contract that makes BENCH_<area>.json files
   committable at all: consecutive runs and different pool widths must
   produce byte-identical counter sections. *)

module Snapshot = Apex.Snapshot
module Json = Apex_telemetry.Json
module Pool = Apex_exec.Pool

let check = Alcotest.check

(* --- the diff gate (pure JSON-level checks) --- *)

let snap_json ?(area = "mining") ?(counters = [ ("c", 10) ])
    ?(alloc = [ ("mining", 1000) ]) () =
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  Json.Obj
    [ ("schema", Json.String Snapshot.schema_version);
      ("area", Json.String area);
      ("counters", ints counters);
      ("alloc_kw", ints alloc) ]

let test_diff_agreement () =
  check Alcotest.(list string) "identical snapshots agree" []
    (Snapshot.diff (snap_json ()) (snap_json ()))

let test_diff_counter_drift () =
  let drift =
    Snapshot.diff (snap_json ()) (snap_json ~counters:[ ("c", 11) ] ())
  in
  check Alcotest.bool "value drift caught" true (drift <> []);
  let missing = Snapshot.diff (snap_json ()) (snap_json ~counters:[] ()) in
  check Alcotest.bool "missing counter caught" true (missing <> []);
  let extra =
    Snapshot.diff (snap_json ())
      (snap_json ~counters:[ ("c", 10); ("new", 1) ] ())
  in
  check Alcotest.bool "extra counter caught" true (extra <> []);
  let mismatched_area = Snapshot.diff (snap_json ()) (snap_json ~area:"smt" ()) in
  check Alcotest.bool "area mismatch caught" true (mismatched_area <> [])

let test_diff_alloc_bound () =
  let old_j = snap_json ~alloc:[ ("big", 1000); ("small", 10) ] () in
  let with_ big small = snap_json ~alloc:[ ("big", big); ("small", small) ] () in
  (* a big layer may move by 10%, a small one by the 64 kw floor *)
  check Alcotest.(list string) "big +10% within bound" []
    (Snapshot.diff old_j (with_ 1100 10));
  check Alcotest.(list string) "big -10% within bound" []
    (Snapshot.diff old_j (with_ 900 10));
  check Alcotest.bool "big +11% beyond bound" true
    (Snapshot.diff old_j (with_ 1110 10) <> []);
  check Alcotest.(list string) "small +64 kw within floor" []
    (Snapshot.diff old_j (with_ 1000 74));
  check Alcotest.bool "small +65 kw beyond floor" true
    (Snapshot.diff old_j (with_ 1000 75) <> []);
  check Alcotest.bool "doubled layer caught" true
    (Snapshot.diff old_j (with_ 2000 10) <> []);
  check Alcotest.bool "missing layer caught" true
    (Snapshot.diff old_j (snap_json ~alloc:[ ("big", 1000) ] ()) <> []);
  check Alcotest.bool "extra layer caught" true
    (Snapshot.diff old_j
       (snap_json ~alloc:[ ("big", 1000); ("new", 1); ("small", 10) ] ())
    <> [])

(* --- the determinism contract --- *)

let counters_string t =
  (* the committable section, exactly as it is serialized *)
  match Snapshot.to_json t with
  | Json.Obj fields -> Json.to_string (List.assoc "counters" fields)
  | _ -> Alcotest.fail "to_json did not yield an object"

let test_run_twice_identical () =
  (* mining is the cheapest area with a rich counter set *)
  let a = Snapshot.run Snapshot.Mining in
  let b = Snapshot.run Snapshot.Mining in
  check Alcotest.string "counter sections byte-identical"
    (counters_string a) (counters_string b)

let test_jobs_invariance () =
  let saved = Pool.jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs saved)
    (fun () ->
      let per_jobs n area =
        Pool.set_jobs n;
        counters_string (Snapshot.run area)
      in
      List.iter
        (fun area ->
          check Alcotest.string
            (Snapshot.area_name area ^ " counters jobs-invariant")
            (per_jobs 1 area) (per_jobs 4 area))
        (* DSE pair evaluation is the pool's one caller in these
           areas; mining and smt run serially at every width, so they
           check that the width reaches nothing else *)
        [ Snapshot.Mining; Snapshot.Smt; Snapshot.Dse ])

let test_no_exec_counters () =
  let t = Snapshot.run Snapshot.Smt in
  List.iter
    (fun (k, _) ->
      check Alcotest.bool (k ^ " not an exec counter") false
        (String.starts_with ~prefix:"exec." k))
    t.Snapshot.counters

let () =
  Alcotest.run "snapshot"
    [ ( "diff",
        [ Alcotest.test_case "agreement" `Quick test_diff_agreement;
          Alcotest.test_case "counter drift" `Quick test_diff_counter_drift;
          Alcotest.test_case "alloc bound" `Quick test_diff_alloc_bound ]
      );
      ( "determinism",
        [ Alcotest.test_case "run twice identical" `Quick
            test_run_twice_identical;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "no exec.* counters" `Quick test_no_exec_counters
        ] ) ]
