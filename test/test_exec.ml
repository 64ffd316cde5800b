(* Tests for the execution substrate: the fork-join pool's determinism
   contract and the artifact store's robustness contract. *)

module Pool = Apex_exec.Pool
module Store = Apex_exec.Store
module Registry = Apex_telemetry.Registry
module Counter = Apex_telemetry.Counter

let check = Alcotest.check

let with_jobs n f () =
  Pool.set_jobs n;
  Fun.protect f ~finally:(fun () -> Pool.set_jobs 1)

(* every store test runs against its own scratch directory *)
let with_scratch_store f () =
  let dir =
    Filename.temp_file "apex-store-test" ""
  in
  Sys.remove dir;
  Store.set_dir dir;
  Store.set_enabled true;
  Registry.enable ();
  Registry.reset ();
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect f ~finally:(fun () ->
      Registry.disable ();
      Registry.reset ();
      if Sys.file_exists dir then rm dir)

(* --- pool --- *)

let test_map_matches_serial () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 7 in
  check
    Alcotest.(list int)
    "submission order kept" (List.map f xs)
    (with_jobs 4 (fun () -> Pool.map f xs) ());
  check
    Alcotest.(list int)
    "empty input" []
    (with_jobs 4 (fun () -> Pool.map f []) ())

let test_exception_propagation () =
  (* the lowest failing submission index wins, as in a serial map *)
  let f x = if x >= 30 then failwith (string_of_int x) else x in
  let got =
    with_jobs 4
      (fun () ->
        match Pool.map f (List.init 100 Fun.id) with
        | _ -> "no exception"
        | exception Failure m -> m)
      ()
  in
  check Alcotest.string "first failure delivered" "30" got

let test_nested_map_degrades () =
  (* a task that itself maps must run inline, not deadlock or spawn *)
  let got =
    with_jobs 4
      (fun () ->
        Pool.map (fun i -> List.fold_left ( + ) 0 (Pool.map (( * ) i) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ])
      ()
  in
  check Alcotest.(list int) "nested results" [ 6; 12; 18; 24 ] got

let test_workers_share_span_context () =
  Registry.enable ();
  Registry.reset ();
  Fun.protect ~finally:(fun () ->
      Registry.disable ();
      Registry.reset ())
  @@ fun () ->
  Apex_telemetry.Span.with_ "phase" (fun () ->
      ignore
        (with_jobs 4
           (fun () ->
             Pool.map (fun i -> Apex_telemetry.Span.with_ "task" (fun () -> i))
               (List.init 16 Fun.id))
           ()));
  let snap = Registry.snapshot () in
  let phase =
    List.find
      (fun (c : Registry.span) -> c.name = "phase")
      (Registry.children_in_order snap.spans)
  in
  match Registry.children_in_order phase with
  | [ task ] ->
      check Alcotest.string "task under phase" "task" task.name;
      check Alcotest.int "all tasks aggregated" 16 task.count
  | cs -> Alcotest.failf "expected one child span, got %d" (List.length cs)

(* --- the producer path --- *)

(* wait until [cond] holds or [timeout_s] passes; true when it held *)
let wait_until ?(timeout_s = 10.0) cond =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

let test_producer_on_caller_in_order () =
  let caller = Domain.self () in
  let log = ref [] in
  let produce x =
    log := (x, Domain.self () = caller) :: !log;
    x * 10
  in
  let got =
    with_jobs 2 (fun () -> Pool.pipeline ~produce (fun y -> y + 1) (List.init 8 Fun.id)) ()
  in
  check Alcotest.(list int) "submission-order results"
    (List.init 8 (fun x -> (x * 10) + 1)) got;
  check
    Alcotest.(list (pair int bool))
    "produced in order, on the calling domain"
    (List.init 8 (fun x -> (x, true)))
    (List.rev !log)

let test_tasks_start_during_production () =
  (* the last item waits (bounded) for task 0: at width 2 a runner must
     have started it while production was still going *)
  let started = Atomic.make false in
  let seen = ref false in
  let last = 3 in
  let produce x =
    if x = last then seen := wait_until (fun () -> Atomic.get started);
    x
  in
  let task x =
    if x = 0 then Atomic.set started true;
    x
  in
  let got =
    with_jobs 2 (fun () -> Pool.pipeline ~produce task (List.init (last + 1) Fun.id)) ()
  in
  check Alcotest.(list int) "results" [ 0; 1; 2; 3 ] got;
  check Alcotest.bool "task 0 ran before the last item was produced" true !seen

let test_width_one_produces_first () =
  let log = ref [] in
  let produce x =
    log := `Produced x :: !log;
    x
  in
  let task x =
    log := `Ran x :: !log;
    x
  in
  ignore (with_jobs 1 (fun () -> Pool.pipeline ~produce task [ 0; 1; 2 ]) ());
  check Alcotest.bool "every item produced before any task ran" true
    (List.rev !log
    = [ `Produced 0; `Produced 1; `Produced 2; `Ran 0; `Ran 1; `Ran 2 ])

let test_lowest_failure_wins () =
  (* tasks sleep so a spawned runner is still busy when the failure is
     delivered, unless the pool joined it first *)
  let active = Atomic.make 0 in
  let outcome ~fail_produce ~fail_task =
    let produce x = if x = fail_produce then failwith ("produce " ^ string_of_int x) else x in
    let task x =
      Atomic.incr active;
      Fun.protect ~finally:(fun () -> Atomic.decr active) @@ fun () ->
      Unix.sleepf 0.005;
      if x = fail_task then failwith ("task " ^ string_of_int x) else x
    in
    let got =
      with_jobs 2
        (fun () ->
          match Pool.pipeline ~produce task (List.init 8 Fun.id) with
          | _ -> "no exception"
          | exception Failure m -> m)
        ()
    in
    check Alcotest.int "no task still running after delivery" 0 (Atomic.get active);
    got
  in
  check Alcotest.string "a task below the producer's failure" "task 2"
    (outcome ~fail_produce:5 ~fail_task:2);
  check Alcotest.string "the producer below a task's failure" "produce 3"
    (outcome ~fail_produce:3 ~fail_task:6);
  check Alcotest.string "the producer's failure alone" "produce 0"
    (outcome ~fail_produce:0 ~fail_task:(-1));
  check Alcotest.string "the lower of two task failures" "task 1"
    (outcome ~fail_produce:(-1) ~fail_task:1)

(* --- store --- *)

let entry_file ns =
  let d = Filename.concat (Store.cache_dir ()) ns in
  match Sys.readdir d with
  | [| name |] -> Filename.concat d name
  | files -> Alcotest.failf "expected one %s entry, found %d" ns (Array.length files)

let test_hit_on_identical_input () =
  let key = Store.key ~version:"t/1" [ 1; 2; 3 ] in
  let computes = ref 0 in
  let f () = incr computes; List.rev [ 1; 2; 3 ] in
  let a = Store.memoize ~ns:"t" ~key f in
  let b = Store.memoize ~ns:"t" ~key f in
  check Alcotest.(list int) "first result" [ 3; 2; 1 ] a;
  check Alcotest.(list int) "cached result" [ 3; 2; 1 ] b;
  check Alcotest.int "computed once" 1 !computes;
  check Alcotest.int "one hit" 1 (Counter.get "exec.cache_hits");
  check Alcotest.int "one miss" 1 (Counter.get "exec.cache_misses")

let test_key_sensitivity () =
  (* the key must move when the input, the phase version or the config
     moves — that is the whole invalidation story *)
  let base = Store.key ~version:"t/1" (1, "cfg") in
  check Alcotest.bool "input changes key" true
    (base <> Store.key ~version:"t/1" (2, "cfg"));
  check Alcotest.bool "config changes key" true
    (base <> Store.key ~version:"t/1" (1, "cfg2"));
  check Alcotest.bool "version changes key" true
    (base <> Store.key ~version:"t/2" (1, "cfg"));
  check Alcotest.bool "key is stable" true
    (base = Store.key ~version:"t/1" (1, "cfg"));
  (* the key reads content only: a shared value keys like two fresh,
     equal ones *)
  let l = List.init 3 Fun.id in
  check Alcotest.string "sharing does not change key"
    (Store.key ~version:"t/1" (List.init 3 Fun.id, List.init 3 Fun.id))
    (Store.key ~version:"t/1" (l, l));
  (* no byte of an input can act as a separator between inputs *)
  check Alcotest.bool "inputs do not run together" true
    (Store.key ~version:"t/1" [ "a\x01b"; "c" ]
    <> Store.key ~version:"t/1" [ "a"; "b\x01c" ])

let test_disabled_store_recomputes () =
  let key = Store.key ~version:"t/1" [ "x" ] in
  let computes = ref 0 in
  let f () = incr computes; 42 in
  ignore (Store.memoize ~ns:"t" ~key f);
  Store.set_enabled false;
  ignore (Store.memoize ~ns:"t" ~key f);
  Store.set_enabled true;
  check Alcotest.int "recomputed while disabled" 2 !computes

let corrupt_with path f =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      (fun () -> really_input_string ic (in_channel_length ic))
      ~finally:(fun () -> close_in ic)
  in
  let oc = open_out_bin path in
  Fun.protect (fun () -> output_string oc (f contents))
    ~finally:(fun () -> close_out oc)

let test_truncated_entry_recovers () =
  let key = Store.key ~version:"t/1" [ "trunc" ] in
  let computes = ref 0 in
  let f () = incr computes; "payload" in
  ignore (Store.memoize ~ns:"t" ~key f);
  (* torn write: half the file is gone *)
  corrupt_with (entry_file "t") (fun s -> String.sub s 0 (String.length s / 2));
  let v = Store.memoize ~ns:"t" ~key f in
  check Alcotest.string "recomputed value" "payload" v;
  check Alcotest.int "recomputed" 2 !computes;
  check Alcotest.int "corruption counted" 1 (Counter.get "exec.cache_corrupt");
  (* the bad entry was evicted and rewritten: next lookup hits *)
  ignore (Store.memoize ~ns:"t" ~key f);
  check Alcotest.int "clean hit after rewrite" 2 !computes

let test_garbage_entry_recovers () =
  let key = Store.key ~version:"t/1" [ "garbage" ] in
  let computes = ref 0 in
  let f () = incr computes; 7 in
  ignore (Store.memoize ~ns:"t" ~key f);
  corrupt_with (entry_file "t") (fun s -> "not a cache entry at all" ^ s);
  check Alcotest.int "recomputed value" 7 (Store.memoize ~ns:"t" ~key f);
  check Alcotest.int "recomputed" 2 !computes;
  check Alcotest.int "corruption counted" 1 (Counter.get "exec.cache_corrupt")

let test_stale_version_recovers () =
  let key = Store.key ~version:"t/1" [ "stale" ] in
  ignore (Store.memoize ~ns:"t" ~key (fun () -> 1));
  (* an entry from an older build: same name, older container version *)
  corrupt_with (entry_file "t") (fun s ->
      Str.replace_first (Str.regexp_string Store.format_version)
        "apex.exec.store/0" s);
  let computes = ref 0 in
  check Alcotest.int "recomputed" 5
    (Store.memoize ~ns:"t" ~key (fun () -> incr computes; 5));
  check Alcotest.int "stale counted" 1 (Counter.get "exec.cache_stale");
  check Alcotest.int "not served stale" 1 !computes

(* An entry another build wrote, with another layout for the same
   value: its header carries another build salt and its payload another
   type.  It must read as stale and be recomputed; unmarshalled as this
   build's type it would crash the reader. *)
let test_other_build_entry_is_stale () =
  let key = Store.key ~version:"t/1" [ "other build" ] in
  ignore (Store.memoize ~ns:"t" ~key (fun () -> [ "mine" ]));
  let other_salt =
    match String.index_opt Store.format_version '+' with
    | Some i ->
        String.sub Store.format_version 0 (i + 1)
        ^ Digest.to_hex (Digest.string "another build")
    | None -> Alcotest.fail "format version carries no build salt"
  in
  let payload = Marshal.to_string ((3.5, [| 1.0; 2.0 |]), [ ("x", 1) ]) [] in
  corrupt_with (entry_file "t") (fun _ ->
      String.concat "\n"
        [ "APEXCACHE"; other_salt; Digest.to_hex (Digest.string payload);
          string_of_int (String.length payload); payload ]);
  let computes = ref 0 in
  check Alcotest.(list string) "recomputed" [ "fresh" ]
    (Store.memoize ~ns:"t" ~key (fun () -> incr computes; [ "fresh" ]));
  check Alcotest.int "stale counted" 1 (Counter.get "exec.cache_stale");
  check Alcotest.int "not read as corrupt" 0 (Counter.get "exec.cache_corrupt");
  check Alcotest.int "recomputed once" 1 !computes

(* Seeded damage to a written entry: a flipped bit, an overwritten
   byte (digits, signs and line breaks among the candidates, so the
   header's numbers and line structure are hit too), a truncation, an
   extension, or a rewritten payload length (negative, short, long or
   [max_int]: the reader must reject it before it sizes a buffer).
   Half the single-byte damage falls in the text header. *)
let mutate st s =
  let n = String.length s in
  (* the end of the [k]-th header line *)
  let rec eol i k =
    let j = String.index_from s i '\n' in
    if k = 1 then j else eol (j + 1) (k - 1)
  in
  let header = eol 0 4 + 1 in
  let pos () =
    if Random.State.bool st then Random.State.int st (min n header)
    else Random.State.int st n
  in
  let set i c = String.mapi (fun j c' -> if j = i then c else c') s in
  match Random.State.int st 5 with
  | 0 ->
      let i = pos () in
      set i (Char.chr (Char.code s.[i] lxor (1 lsl Random.State.int st 8)))
  | 1 ->
      let i = pos () in
      let menu = "0123456789-+_x\n \255" in
      let c = menu.[Random.State.int st (String.length menu)] in
      set i (if c = s.[i] then Char.chr ((Char.code c + 1) land 255) else c)
  | 2 -> String.sub s 0 (pos ())
  | 3 ->
      s ^ String.init (1 + Random.State.int st 16) (fun _ ->
              Char.chr (Random.State.int st 256))
  | _ ->
      (* the length is the fourth header line *)
      let a = eol 0 3 + 1 and b = eol 0 4 in
      let len = int_of_string (String.sub s a (b - a)) in
      let len' =
        match Random.State.int st 4 with
        | 0 -> -1 - Random.State.int st (len + 1)
        | 1 -> Random.State.int st len
        | 2 -> len + 1 + Random.State.int st 64
        | _ -> max_int
      in
      String.sub s 0 a ^ string_of_int len' ^ String.sub s b (n - b)

(* whatever the damage, a lookup misses and counts the entry corrupt or
   stale: it never serves a value and never raises *)
let survives_mutations (type a) name (v : a) =
  let key = Store.key ~version:"t/1" [ name ] in
  let rejected () =
    Counter.get "exec.cache_corrupt" + Counter.get "exec.cache_stale"
  in
  for seed = 1 to 64 do
    Store.store ~ns:"t" ~key v;
    corrupt_with (entry_file "t") (mutate (Random.State.make [| seed |]));
    let before = rejected () in
    (match (Store.lookup ~ns:"t" ~key : a option) with
    | None -> ()
    | Some _ -> Alcotest.failf "%s, seed %d: a damaged entry was served" name seed
    | exception e ->
        Alcotest.failf "%s, seed %d: lookup raised %s" name seed
          (Printexc.to_string e));
    check Alcotest.int
      (Printf.sprintf "%s, seed %d: rejection counted" name seed)
      (before + 1) (rejected ())
  done

let test_seeded_entry_mutations () =
  survives_mutations "list" (List.init 40 Fun.id);
  survives_mutations "string" "payload";
  (* the configuration-space artifact Variants.make stores *)
  survives_mutations "configspace"
    (Apex_verif.Configspace.analyze ~label:"mutated"
       (Apex_peak.Library.baseline ()))

let test_stats_and_gc_budget () =
  let put ns i =
    Store.store ~ns ~key:(Store.key ~version:"t/1" [ string_of_int i ])
      (String.make 1000 'x')
  in
  List.iter (put "a") [ 1; 2; 3 ];
  List.iter (put "b") [ 1; 2 ];
  let stats = Store.stats () in
  check Alcotest.(list string) "namespaces" [ "a"; "b" ]
    (List.map (fun (s : Store.ns_stats) -> s.ns) stats);
  check Alcotest.(list int) "entry counts" [ 3; 2 ]
    (List.map (fun (s : Store.ns_stats) -> s.entries) stats);
  let total_bytes =
    List.fold_left (fun acc (s : Store.ns_stats) -> acc + s.bytes) 0 stats
  in
  (* age the "a" entries so gc prefers deleting them *)
  let old = Unix.time () -. 3600.0 in
  let adir = Filename.concat (Store.cache_dir ()) "a" in
  Array.iter
    (fun e -> Unix.utimes (Filename.concat adir e) old old)
    (Sys.readdir adir);
  (* budget for roughly the two newest entries *)
  let per_entry = total_bytes / 5 in
  let deleted, freed = Store.gc ~budget_bytes:(2 * per_entry) () in
  check Alcotest.int "three oldest deleted" 3 deleted;
  check Alcotest.bool "bytes freed" true (freed >= 3 * 1000);
  let left = Store.stats () in
  check Alcotest.(list string) "newest namespace survives" [ "b" ]
    (List.map (fun (s : Store.ns_stats) -> s.ns) left);
  (* budget 0 empties the store *)
  let deleted, _ = Store.gc () in
  check Alcotest.int "gc all" 2 deleted;
  check Alcotest.(list string) "empty" []
    (List.map (fun (s : Store.ns_stats) -> s.ns) (Store.stats ()))

(* Other builds' entries cannot be read by this build, so gc reclaims
   them before any current entry, even when they are newer: with a
   budget that fits exactly the current entries, exactly the entries
   of the two other salts go. *)
let test_gc_other_builds_first () =
  let keys =
    List.map (fun i -> Store.key ~version:"t/1" [ string_of_int i ]) [ 1; 2; 3 ]
  in
  List.iter (fun key -> Store.store ~ns:"t" ~key (String.make 1000 'z')) keys;
  let dir = Filename.concat (Store.cache_dir ()) "t" in
  let current = Array.to_list (Sys.readdir dir) in
  let budget =
    List.fold_left
      (fun acc e -> acc + (Unix.stat (Filename.concat dir e)).Unix.st_size)
      0 current
  in
  let sample =
    let ic = open_in_bin (Filename.concat dir (List.hd current)) in
    Fun.protect
      (fun () -> really_input_string ic (in_channel_length ic))
      ~finally:(fun () -> close_in ic)
  in
  let salted build =
    match String.index_opt Store.format_version '+' with
    | Some i ->
        String.sub Store.format_version 0 (i + 1)
        ^ Digest.to_hex (Digest.string build)
    | None -> Alcotest.fail "format version carries no build salt"
  in
  (* same size as a current entry, another version line, and newer *)
  let old = Unix.time () -. 3600.0 in
  List.iter (fun e -> Unix.utimes (Filename.concat dir e) old old) current;
  let foreign =
    List.concat_map
      (fun build ->
        List.map
          (fun i ->
            let name = Printf.sprintf "%s-%d" (Digest.to_hex (Digest.string build)) i in
            let oc = open_out_bin (Filename.concat dir name) in
            Fun.protect
              (fun () ->
                output_string oc
                  (Str.replace_first
                     (Str.regexp_string Store.format_version)
                     (salted build) sample))
              ~finally:(fun () -> close_out oc);
            name)
          [ 1; 2 ])
      [ "build a"; "build b" ]
  in
  let deleted, freed = Store.gc ~budget_bytes:budget () in
  check Alcotest.int "exactly the foreign entries deleted"
    (List.length foreign) deleted;
  check Alcotest.int "their bytes freed"
    (List.length foreign * String.length sample) freed;
  check Alcotest.(list string) "current entries kept"
    (List.sort compare current)
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  let computes = ref 0 in
  List.iter
    (fun key ->
      ignore
        (Store.memoize ~ns:"t" ~key (fun () ->
             incr computes;
             "recomputed")))
    keys;
  check Alcotest.int "every current entry still hits" 0 !computes

let test_tenant_namespaces () =
  let key = Store.key ~version:"t/1" [ "shared" ] in
  let computes = ref 0 in
  let memo () =
    Store.memoize ~ns:"arts" ~key (fun () ->
        incr computes;
        "payload")
  in
  (* two tenants memoize the same (ns, key): each computes once, into
     its own "<tenant>~arts" directory *)
  check Alcotest.string "alice computes" "payload"
    (Store.with_namespace (Some "alice") memo);
  check Alcotest.string "bob computes his own" "payload"
    (Store.with_namespace (Some "bob") memo);
  check Alcotest.int "no cross-tenant sharing" 2 !computes;
  check Alcotest.string "alice warm" "payload"
    (Store.with_namespace (Some "alice") memo);
  check Alcotest.int "intra-tenant sharing" 2 !computes;
  (* the tenant prefix is a real path segment the stats walker sees *)
  let names = List.map (fun (s : Store.ns_stats) -> s.ns) (Store.stats ()) in
  check Alcotest.(list string) "namespaces on disk"
    [ "alice~arts"; "bob~arts" ] names;
  (* the ambient namespace is scoped: outside, the raw ns is back *)
  check Alcotest.(option string) "no ambient namespace" None
    (Store.namespace ());
  check Alcotest.string "unprefixed is distinct" "payload" (memo ());
  check Alcotest.int "third copy" 3 !computes

let test_gc_ns_and_prefix () =
  let put ns i =
    Store.store ~ns ~key:(Store.key ~version:"t/1" [ string_of_int i ])
      (String.make 500 'y')
  in
  List.iter (put "alice~rules") [ 1; 2 ];
  List.iter (put "alice~merge") [ 1 ];
  List.iter (put "bob~rules") [ 1; 2 ];
  (* per-namespace gc touches exactly the one namespace *)
  let deleted, freed = Store.gc_ns ~ns:"alice~merge" () in
  check Alcotest.int "one entry gone" 1 deleted;
  check Alcotest.bool "bytes counted" true (freed >= 500);
  (* prefix gc with a budget trims the tenant, oldest first, and never
     crosses into another tenant's namespaces *)
  let adir = Filename.concat (Store.cache_dir ()) "alice~rules" in
  let old = Unix.time () -. 3600.0 in
  let entries = Sys.readdir adir in
  Array.sort compare entries;
  Unix.utimes (Filename.concat adir entries.(0)) old old;
  (* room for one of the two equal-size entries, not both *)
  let one = (Unix.stat (Filename.concat adir entries.(1))).Unix.st_size in
  let deleted, _ =
    Store.gc_prefix ~prefix:"alice~" ~budget_bytes:(3 * one / 2) ()
  in
  check Alcotest.int "oldest alice entry evicted" 1 deleted;
  let left = List.map (fun (s : Store.ns_stats) -> s.ns) (Store.stats ()) in
  check Alcotest.(list string) "bob untouched"
    [ "alice~rules"; "bob~rules" ] left;
  let bob =
    List.find
      (fun (s : Store.ns_stats) -> s.ns = "bob~rules")
      (Store.stats ())
  in
  check Alcotest.int "bob keeps both entries" 2 bob.entries

let test_concurrent_memoize () =
  (* parallel writers of the same key must never corrupt the entry or
     crash; one of the atomically-renamed writes wins *)
  let key = Store.key ~version:"t/1" [ "race" ] in
  let vs =
    with_jobs 4
      (fun () ->
        Pool.map (fun _ -> Store.memoize ~ns:"t" ~key (fun () -> "value"))
          (List.init 32 Fun.id))
      ()
  in
  check Alcotest.bool "all reads agree" true
    (List.for_all (String.equal "value") vs);
  check Alcotest.(option string) "entry readable" (Some "value")
    (Store.lookup ~ns:"t" ~key)

(* --- the memo contract: store only exact results, replay on a hit --- *)

module Outcome = Apex_guard.Outcome

let pairs = Alcotest.(list (pair string int))

let stored ns =
  List.fold_left
    (fun n (s : Store.ns_stats) -> if s.ns = ns then n + s.entries else n)
    0 (Store.stats ())

(* what a hit added, without the hit's own store traffic *)
let replayed_by f =
  Registry.reset ();
  let v = f () in
  ( v,
    List.filter
      (fun (k, _) -> not (String.starts_with ~prefix:"exec.cache_" k))
      (Registry.snapshot ()).counters )

let test_memo_replays_result_counters () =
  (* a hit replays what the computation counted, except solver work,
     store traffic and the run's circumstances; so does a lookup; an
     entry written by [store] replays nothing *)
  let key = Store.key ~version:"t/1" [ "replay" ] in
  let f () =
    Counter.add "t.work" 3;
    Counter.add "t.zero" 0;
    Counter.incr "smt.solver_calls";
    Counter.incr "exec.t_traffic";
    Counter.incr "guard.retries.t";
    Counter.incr "guard.faults_injected";
    Outcome.record ~phase:"t" Outcome.Exact;
    42
  in
  (* written untraced: the tally does not need the registry *)
  Registry.disable ();
  ignore (Store.memoize ~ns:"t" ~key f);
  Registry.enable ();
  let expected =
    [ ("guard.outcome.exact", 1); ("t.work", 3); ("t.zero", 0) ]
  in
  let v, hit = replayed_by (fun () -> Store.memoize ~ns:"t" ~key f) in
  check Alcotest.int "hit value" 42 v;
  check pairs "a hit replays the result's counters" expected hit;
  let v, looked_up = replayed_by (fun () -> Store.lookup ~ns:"t" ~key) in
  check Alcotest.(option int) "lookup value" (Some 42) v;
  check pairs "so does a lookup" expected looked_up;
  let key = Store.key ~version:"t/1" [ "plain" ] in
  Store.store ~ns:"t" ~key 7;
  let v, plain = replayed_by (fun () -> Store.memoize ~ns:"t" ~key f) in
  check Alcotest.int "stored value" 7 v;
  check pairs "a stored entry replays nothing" [] plain

let test_memo_stores_only_exact () =
  (* a degraded or skipped outcome is a run-local circumstance: the
     result is returned but recomputed next time, traced or not *)
  let run traced i outcome =
    if traced then Registry.enable () else Registry.disable ();
    let key =
      Store.key ~version:"t/1" [ string_of_bool traced; string_of_int i ]
    in
    let computes = ref 0 in
    let f () =
      incr computes;
      Outcome.record ~phase:"t" outcome;
      i
    in
    check Alcotest.int "value" i (Store.memoize ~ns:"t" ~key f);
    check Alcotest.int "value again" i (Store.memoize ~ns:"t" ~key f);
    check Alcotest.int
      (Printf.sprintf "%s (traced %b): computations" (Outcome.to_string outcome)
         traced)
      (if Outcome.is_exact outcome then 1 else 2)
      !computes
  in
  List.iter
    (fun traced ->
      List.iteri (run traced)
        Outcome.
          [ Exact; Degraded Deadline; Degraded Fuel; Skipped (Fault "t") ])
    [ true; false ]

let test_memo_inner_degraded_keeps_outer_out () =
  (* an inner memo's degradation keeps every enclosing memo out of the
     store; an inner exact hit is replayed into the outer entry *)
  let key name = Store.key ~version:"t/1" [ name ] in
  let inner outcome () =
    Store.memoize ~ns:"inner" ~key:(key (Outcome.to_string outcome))
      (fun () ->
        Counter.incr "t.inner";
        Outcome.record ~phase:"t" outcome;
        1)
  in
  let outer name inner () =
    Store.memoize ~ns:"outer" ~key:(key name) (fun () ->
        Counter.incr "t.outer";
        inner () + 1)
  in
  ignore (outer "degraded" (inner (Outcome.Degraded Outcome.Deadline)) ());
  check Alcotest.int "the degraded inner is not stored" 0 (stored "inner");
  check Alcotest.int "nor the outer around it" 0 (stored "outer");
  ignore (inner Outcome.Exact ());
  ignore (outer "exact" (inner Outcome.Exact) ());
  check Alcotest.int "an exact inner is stored" 1 (stored "inner");
  check Alcotest.int "and the outer around its hit" 1 (stored "outer");
  let v, hit = replayed_by (outer "exact" (fun () -> Alcotest.fail "inner ran")) in
  check Alcotest.int "outer value" 2 v;
  check pairs "the outer hit replays the inner's counters too"
    [ ("guard.outcome.exact", 1); ("t.inner", 1); ("t.outer", 1) ]
    hit

(* --- scrub and orphan reaping --- *)

let entry_file ~ns =
  let d = Filename.concat (Store.cache_dir ()) ns in
  match Sys.readdir d with
  | [| name |] -> Filename.concat d name
  | files ->
      Alcotest.failf "expected exactly one entry in %s, found %d" ns
        (Array.length files)

let test_scrub_quarantines_corrupt () =
  Store.store ~ns:"good" ~key:(Store.key ~version:"t" [ "a" ]) "intact";
  Store.store ~ns:"bad" ~key:(Store.key ~version:"t" [ "b" ]) "doomed";
  (* bit rot: append garbage so the digest no longer matches *)
  let victim = entry_file ~ns:"bad" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 victim in
  output_string oc "bitrot";
  close_out oc;
  let by_ns ns stats =
    List.find_opt
      (fun (s : Store.scrub_stats) -> s.Store.scrub_ns = ns)
      stats
  in
  let stats = Store.scrub () in
  (match by_ns "bad" stats with
  | Some s ->
      check Alcotest.int "corrupt found" 1 s.Store.corrupt;
      check Alcotest.bool "bytes accounted" true (s.Store.quarantined_bytes > 0)
  | None -> Alcotest.fail "no stats for the corrupted namespace");
  (match by_ns "good" stats with
  | Some s ->
      check Alcotest.int "good ns clean" 0 s.Store.corrupt;
      check Alcotest.int "good ns verified" 1 s.Store.ok
  | None -> Alcotest.fail "no stats for the good namespace");
  (* quarantined, not deleted: the evidence moved under quarantine/ *)
  check Alcotest.bool "entry left the namespace" false (Sys.file_exists victim);
  let q =
    Filename.concat
      (Filename.concat (Store.cache_dir ()) "quarantine")
      "bad"
  in
  check Alcotest.int "evidence preserved" 1 (Array.length (Sys.readdir q));
  (* a second scrub over the now-clean store finds nothing: quarantine
     is invisible to the walk, as are stats and gc *)
  List.iter
    (fun (s : Store.scrub_stats) ->
      check Alcotest.int "re-scrub clean" 0 s.Store.corrupt)
    (Store.scrub ());
  check Alcotest.bool "stats skip quarantine" true
    (List.for_all (fun (s : Store.ns_stats) -> s.Store.ns <> "quarantine")
       (Store.stats ()));
  ignore (Store.gc () : int * int);
  check Alcotest.int "gc spares quarantine" 1 (Array.length (Sys.readdir q))

let test_scrub_single_namespace () =
  Store.store ~ns:"a" ~key:(Store.key ~version:"t" [ "a" ]) 1;
  Store.store ~ns:"b" ~key:(Store.key ~version:"t" [ "b" ]) 2;
  match Store.scrub ~ns:"a" () with
  | [ s ] -> check Alcotest.string "only the named ns" "a" s.Store.scrub_ns
  | l -> Alcotest.failf "expected 1 namespace, got %d" (List.length l)

let test_gc_reaps_old_tmp_only () =
  Store.store ~ns:"t" ~key:(Store.key ~version:"t" [ "a" ]) "real";
  let d = Filename.concat (Store.cache_dir ()) "t" in
  let write_tmp name mtime_ago =
    let path = Filename.concat d name in
    let oc = open_out_bin path in
    output_string oc "half a payload";
    close_out oc;
    if mtime_ago > 0.0 then begin
      let t = Unix.gettimeofday () -. mtime_ago in
      Unix.utimes path t t
    end;
    path
  in
  (* one orphan from a long-dead writer, one fresh enough that a live
     writer may still own it *)
  let old_tmp = write_tmp "deadbeef.tmp.999.0" 7200.0 in
  let fresh_tmp = write_tmp "cafebabe.tmp.998.1" 0.0 in
  let deleted, _ = Store.gc ~budget_bytes:max_int () in
  check Alcotest.int "no entries deleted" 0 deleted;
  check Alcotest.bool "old orphan reaped" false (Sys.file_exists old_tmp);
  check Alcotest.bool "fresh tmp spared" true (Sys.file_exists fresh_tmp);
  check Alcotest.int "reap counted" 1 (Counter.get "exec.cache_tmp_reaped")

let () =
  Alcotest.run "exec"
    [ ( "pool",
        [ Alcotest.test_case "map matches serial" `Quick test_map_matches_serial;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested map degrades" `Quick
            test_nested_map_degrades;
          Alcotest.test_case "span context inherited" `Quick
            test_workers_share_span_context;
          Alcotest.test_case "producer on the caller, in order" `Quick
            test_producer_on_caller_in_order;
          Alcotest.test_case "tasks start during production" `Quick
            test_tasks_start_during_production;
          Alcotest.test_case "width 1 produces first" `Quick
            test_width_one_produces_first;
          Alcotest.test_case "lowest failure wins" `Quick
            test_lowest_failure_wins ] );
      ( "store",
        [ Alcotest.test_case "hit on identical input" `Quick
            (with_scratch_store test_hit_on_identical_input);
          Alcotest.test_case "key sensitivity" `Quick
            (with_scratch_store test_key_sensitivity);
          Alcotest.test_case "disabled recomputes" `Quick
            (with_scratch_store test_disabled_store_recomputes);
          Alcotest.test_case "truncated entry" `Quick
            (with_scratch_store test_truncated_entry_recovers);
          Alcotest.test_case "garbage entry" `Quick
            (with_scratch_store test_garbage_entry_recovers);
          Alcotest.test_case "stale version" `Quick
            (with_scratch_store test_stale_version_recovers);
          Alcotest.test_case "another build's entry is stale" `Quick
            (with_scratch_store test_other_build_entry_is_stale);
          Alcotest.test_case "seeded entry mutations" `Quick
            (with_scratch_store test_seeded_entry_mutations);
          Alcotest.test_case "stats and gc budget" `Quick
            (with_scratch_store test_stats_and_gc_budget);
          Alcotest.test_case "tenant namespaces" `Quick
            (with_scratch_store test_tenant_namespaces);
          Alcotest.test_case "gc by namespace and prefix" `Quick
            (with_scratch_store test_gc_ns_and_prefix);
          Alcotest.test_case "gc reclaims other builds first" `Quick
            (with_scratch_store test_gc_other_builds_first);
          Alcotest.test_case "concurrent memoize" `Quick
            (with_scratch_store test_concurrent_memoize) ] );
      ( "memo contract",
        [ Alcotest.test_case "hit replays counters" `Quick
            (with_scratch_store test_memo_replays_result_counters);
          Alcotest.test_case "only exact stored" `Quick
            (with_scratch_store test_memo_stores_only_exact);
          Alcotest.test_case "degraded inner keeps outer out" `Quick
            (with_scratch_store test_memo_inner_degraded_keeps_outer_out) ] );
      ( "scrub",
        [ Alcotest.test_case "quarantines corrupt entries" `Quick
            (with_scratch_store test_scrub_quarantines_corrupt);
          Alcotest.test_case "single-namespace audit" `Quick
            (with_scratch_store test_scrub_single_namespace);
          Alcotest.test_case "gc reaps only old tmp orphans" `Quick
            (with_scratch_store test_gc_reaps_old_tmp_only) ] ) ]
