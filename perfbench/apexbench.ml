(* The APEX flow benchmark.

   Three workloads drive the product through its public entry points:

   - dse-suite: the product DSE job (base + spec:<app>) for each of the
     nine built-in applications, cold (empty artifact store, fresh memos)
     then warm (same store, fresh memos).  Mapping and place/route carry
     the time; the cold/warm split exercises store writes and reads.
   - mine-deep: frequent-subgraph analysis at the miner's default
     configuration (max_size 5) on the nine applications, then the PE IP
     and PE ML domain PEs (merge, configspace, rule synthesis).  Mining
     and MIS carry the time; the mapper and the fabric do nothing.
   - serve-mixed: an `apex serve --journal` daemon in its own process,
     two warmed tenants, closed-loop passes of every request template,
     then an open-loop seeded schedule over two connections.  Requests are
     mostly store hits and cheap analyses, so admission, journal, store
     reads, framing and the per-request report carry the time.

   Times are seconds at a reference host speed: each timed operation is
   scaled by calibrations run beside it (see "host speed" below).

   BENCHMARK.json lists dse-suite and serve-mixed.  mine-deep runs the
   same way (run.py --workload mine-deep) but is left out of the list:
   even scaled, its medians moved by an eighth to a fifth between runs,
   as its large heap feels the host's memory traffic more than the
   calibration does, and two workloads leave time for longer runs.  Its
   layers are also traced on dse-suite.

   End-to-end metrics, per workload (dse-suite / mine-deep / serve-mixed):
   - setup_s: starting the process plus the median set-up (apps, frames
     and an empty store / the same / a daemon spawned, socket ready and
     two tenants warmed).
   - cold_s, warm_s: median time of a pass on an empty and on a warm
     store, with fresh memos; for serve-mixed a pass is one closed-loop
     round of every request template, cold for a new tenant.  mine-deep
     discards its first pass.
   - app_geomean_ms: geometric mean over apps of each app's median time
     in cold passes (a job / an analysis / the app's requests).
   - req_p50_ms, req_p95_ms: per-job latency in warm passes / per-app
     analysis latency / per-request latency in warm closed-loop passes
     (the open loop's latency is traced; see serve_mixed).
   - goodput_rps: jobs (analyses and domain PEs) per second of a cold
     pass and the warm passes that follow it, at the median pass times /
     answers within 250 ms per second of schedule.
   - peak_rss_mb: VmHWM of this process / this process / the daemon.

   With [--trace 0] the run measures with telemetry off and prints the
   end-to-end metrics.  With [--trace 1] it makes a separate, serial run
   with telemetry on, reads the span tree and counters the product keeps,
   times direct calls into layers the spans do not split (placement,
   routing, configspace, the store, the journal, framing) from this file,
   and prints the per-layer metrics.

   Every run checks its outputs outside the timed region: fabric
   simulation against the golden interpreter, result digests against
   perfbench/expected, served results against a standalone run.  The
   last line of standard output is the JSON result. *)

module Apps = Apex_halide.Apps
module Json = Apex_telemetry.Json
module Registry = Apex_telemetry.Registry
module Span = Apex_telemetry.Span
module Store = Apex_exec.Store
module Pool = Apex_exec.Pool
module Dse = Apex.Dse
module Jobs = Apex.Jobs
module Variants = Apex.Variants
module Analysis = Apex_mining.Analysis
module Miner = Apex_mining.Miner
module Pattern = Apex_mining.Pattern
module Cover = Apex_mapper.Cover
module Proto = Apex_serve.Proto
module Client = Apex_serve.Client
module Journal = Apex_serve.Journal

let now = Unix.gettimeofday

let ms s = 1e3 *. s

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* --- statistics --- *)

(* linear interpolation between closest ranks, as Python's
   statistics.quantiles(method="inclusive") and numpy's default *)
let quantile l p =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile l 0.5

let sum = List.fold_left ( +. ) 0.0

let mean = function [] -> 0.0 | l -> sum l /. float_of_int (List.length l)

let geomean l = exp (mean (List.map log l))

(* geometric mean over apps of each app's median time, from (app,
   seconds) samples; a slow app cannot hide a regression on a small one *)
let app_geomean_ms samples =
  List.sort_uniq compare (List.map fst samples)
  |> List.map (fun a ->
         ms (median (List.filter_map (fun (b, s) -> if a = b then Some s else None) samples)))
  |> geomean

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- files and processes --- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path

(* peak resident set (VmHWM) of a process, in MiB *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) @@ fun ic ->
  let rec scan () =
    match In_channel.input_line ic with
    | None -> failwith "no VmHWM in /proc status"
    | Some l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | Some _ -> scan ()
  in
  scan ()

(* --- correctness tally --- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
}

let new_tally () = { attempted = 0; failed = 0; notes = [] }

let tally = new_tally ()

let record t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- what () :: t.notes
  end

let check_digest t ~what ~expected actual =
  record t (String.equal expected actual) (fun () ->
      Printf.sprintf "%s digest %s, expected %s" what actual expected)

let check_frames t ~what golden outputs =
  if List.length golden <> List.length outputs then
    record t false (fun () -> what ^ ": frame count differs")
  else
    List.iteri
      (fun i (g, o) ->
        record t
          (List.sort compare g = List.sort compare o)
          (fun () ->
            Printf.sprintf "%s: frame %d differs from the golden interpreter"
              what i))
      (List.combine golden outputs)

let read_expected name =
  let path = Filename.concat (Filename.concat "perfbench" "expected") name in
  String.trim (In_channel.with_open_bin path In_channel.input_all)

let md5 s = Digest.to_hex (Digest.string s)

(* The checks must catch what they exist to catch: a wrong expected
   digest and a simulation frame that differs from the golden model. *)
let self_test ~digest =
  let t = new_tally () in
  let wrong =
    String.mapi (fun i c -> if i = 0 then if c = '0' then '1' else '0' else c)
      digest
  in
  check_digest t ~what:"self-test" ~expected:wrong digest;
  check_frames t ~what:"self-test" [ [ ("o", 1) ] ] [ [ ("o", 2) ] ];
  t.failed = 2

(* --- run context --- *)

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  apex : string;  (** the `apex` CLI binary, for the serve daemon *)
  startup_s : float;  (** starting this executable, up to its main *)
  scratch : string;
  rng : Random.State.t;
  jobs : int;  (** default pool width *)
}

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let all_app_names =
  [ "camera"; "harris"; "gaussian"; "unsharp"; "resnet"; "mobilenet";
    "laplacian"; "stereo"; "fast" ]

let with_fresh_memos f = Dse.with_local_memo (fun () -> Variants.with_local_memo f)

let fresh_store ctx =
  let dir = Filename.concat ctx.scratch "store" in
  fresh_dir dir;
  Store.set_dir dir

(* --- host speed --- *)

(* This benchmark runs on a few cores of a shared host.  The speed of
   each core shifts by up to 1.6x, from one tenth of a second to the next
   and for minutes at a time, and the cores shift partly independently;
   raw wall times of the same code then spread by a third from run to
   run.  So every timed operation runs between two calibrations, and its
   time is reported as wall x reference_s / (mean of the two): seconds at
   the host speed at which a calibration takes reference_s.  Both sides
   of a comparison are scaled alike, so a faster product reads faster.

   A calibration runs a fixed kernel on every core at once (the product
   uses them all: a pool as wide as the cores, or the serve daemon next
   to this process) and takes the mean of their times.  The kernel is the
   same kind of work as the flow (pointer chasing, hashing of structured
   keys, sorting) but allocates nothing, so the state of the heap the
   product leaves behind cannot change its time. *)
let reference_s = 0.010

let chain =
  (* a single cycle through 2 MB (Sattolo's shuffle); lazy, so that the
     --startup spawns do not build it *)
  lazy
  (let n = 1 lsl 18 in
  let rng = Random.State.make [| 17 |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a)

let keys = Array.init 4096 (fun i -> (i, string_of_int (i * 31), [ i; i land 7; i lsr 3 ]))

let sort_src = Array.init 16_384 (fun i -> (i * 65599) land 0xfffff)

let cores = Domain.recommended_domain_count ()

(* one sort buffer per core *)
let sort_bufs = Array.init cores (fun _ -> Array.make (Array.length sort_src) 0)

let calibration_kernel chain sort_buf =
  let p = ref 0 and acc = ref 0 in
  for _ = 1 to 60_000 do
    p := chain.(!p);
    acc := !acc + !p
  done;
  for _ = 1 to 4 do
    Array.iter (fun k -> acc := !acc lxor Hashtbl.hash k) keys
  done;
  Array.blit sort_src 0 sort_buf 0 (Array.length sort_src);
  Array.sort Int.compare sort_buf;
  !acc + sort_buf.(0)

(* The kernel runs once untimed first: a core that has just woken from
   idle (this process waits on the serve daemon between requests) reads
   up to half again as slow on its first few milliseconds of work, by an
   amount that changes from minute to minute while the work it wakes for
   does not. *)
let calibrate_on i =
  let chain = Lazy.force chain in
  ignore (calibration_kernel chain sort_bufs.(i));
  fst (time (fun () -> calibration_kernel chain sort_bufs.(i)))

(* every calibration of the run, for its report *)
let calibrations = ref []

let calibration_s () =
  (* forced here, before the spawns: domains must not race on a lazy *)
  ignore (Lazy.force chain);
  let others = List.init (cores - 1) (fun i -> Domain.spawn (fun () -> calibrate_on (i + 1))) in
  let mine = calibrate_on 0 in
  let c = (mine +. sum (List.map Domain.join others)) /. float_of_int cores in
  calibrations := c :: !calibrations;
  c

(* [f] on each element in order, with its host-normalized seconds; a
   calibration runs before the first element and after each one. *)
let steady_map f l =
  let before = ref (calibration_s ()) in
  List.map
    (fun x ->
      let dt, r = time (fun () -> f x) in
      let after = calibration_s () in
      let secs = dt *. 2.0 *. reference_s /. (!before +. after) in
      before := after;
      (secs, r))
    l

(* [steady_map] when [steady], else plain wall times: the traced run's
   self-times must partition its wall *)
let timed_map ~steady f l =
  if steady then steady_map f l else List.map (fun x -> time (fun () -> f x)) l

(* setup_s is starting the process plus the median of [repeats]
   repetitions of the workload's set-up. *)
let timed_setups ctx ~repeats f =
  let runs = steady_map f (List.init repeats Fun.id) in
  (ctx.startup_s +. median (List.map fst runs), List.map snd runs)

let print_passes what l =
  Printf.printf "%s passes (s at reference speed): %s\n" what
    (String.concat " " (List.map (Printf.sprintf "%.3f") l))

(* --- span-tree accounting --- *)

type node = { name : string; total_ms : float; minor_w : float; kids : node list }

let rec node_of_span (sp : Registry.span) =
  { name = sp.name;
    total_ms = ms sp.total_s;
    minor_w = sp.minor_words;
    kids = List.map node_of_span (Registry.children_in_order sp) }

let rec node_of_json j =
  let num k j =
    match Json.member k j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  { name =
      (match Json.member "name" j with Some (Json.String s) -> s | _ -> "?");
    total_ms = num "total_ms" j;
    minor_w =
      (match Json.member "gc" j with Some g -> num "minor_words" g | None -> 0.0);
    kids =
      (match Json.member "children" j with
      | Some (Json.List l) -> List.map node_of_json l
      | _ -> []) }

(* The product's own spans, by the layer they time.  Self time (a span
   minus its children) partitions the traced wall; whatever no layer
   span covers is core.unattributed_ms. *)
let layer_of = function
  | "analysis" | "mining" -> Some "mining.mine_ms"
  | "mis" -> Some "mining.mis_ms"
  | "merging" -> Some "merging.merge_ms"
  | "rules" | "synth" | "verify" -> Some "mapper.rules_ms"
  | "mapping" -> Some "mapper.map_ms"
  | "pnr" -> Some "cgra.pnr_ms"
  | "pipelining" | "pe_retime" | "app_pipeline" -> Some "pipelining.plan_ms"
  | n when String.starts_with ~prefix:"variant:" n -> Some "core.variant_ms"
  | _ -> None

let partition_layers =
  [ "mining.mine_ms"; "mining.mis_ms"; "merging.merge_ms"; "mapper.rules_ms";
    "mapper.map_ms"; "cgra.pnr_ms"; "pipelining.plan_ms"; "core.variant_ms" ]

type layers = { self_ms : (string, float) Hashtbl.t; self_w : (string, float) Hashtbl.t }

let new_layers () = { self_ms = Hashtbl.create 16; self_w = Hashtbl.create 16 }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

let rec accumulate ls n =
  (match layer_of n.name with
  | Some l ->
      bump ls.self_ms l
        (n.total_ms -. sum (List.map (fun k -> k.total_ms) n.kids));
      bump ls.self_w l (n.minor_w -. sum (List.map (fun k -> k.minor_w) n.kids))
  | None -> ());
  List.iter (accumulate ls) n.kids

let counter (snap : Registry.snapshot) k =
  float_of_int (Option.value ~default:0 (List.assoc_opt k snap.counters))

let dist_sum (snap : Registry.snapshot) k =
  match List.assoc_opt k snap.dists with Some d -> d.Registry.sum | None -> 0.0

(* Run [f] with telemetry on and return its wall time, result and the
   registry snapshot. *)
let traced f =
  Registry.reset ();
  Registry.enable ();
  let r =
    Fun.protect ~finally:Registry.disable (fun () ->
        let dt, r = time f in
        (dt, r, Registry.snapshot ()))
  in
  Registry.reset ();
  r

(* --- metric output --- *)

let e2e_metrics =
  [ ("setup_s", "s"); ("cold_s", "s"); ("warm_s", "s");
    ("app_geomean_ms", "ms"); ("req_p50_ms", "ms"); ("req_p95_ms", "ms");
    ("goodput_rps", "1/s"); ("peak_rss_mb", "MB") ]

let per_layer_metrics =
  [ ("mining.mine_ms", "ms"); ("mining.mis_ms", "ms");
    ("mining.embeddings", "count"); ("mining.canon_hit_ratio", "ratio");
    ("mining.alloc_mw", "Mw"); ("merging.merge_ms", "ms");
    ("merging.opportunities", "count"); ("verif.configspace_ms", "ms");
    ("mapper.rules_ms", "ms"); ("smt.solver_calls", "count");
    ("mapper.map_ms", "ms"); ("mapper.map_calls", "count");
    ("mapper.match_ratio", "ratio"); ("mapper.alloc_mw", "Mw");
    ("cgra.pnr_ms", "ms"); ("cgra.place_ms", "ms"); ("cgra.route_ms", "ms");
    ("cgra.route_iterations", "count"); ("cgra.alloc_mw", "Mw");
    ("pipelining.plan_ms", "ms"); ("core.variant_ms", "ms");
    ("core.pair_eval_ms", "ms") ]
  @ List.map (fun a -> ("core.app_ms." ^ a, "ms")) all_app_names
  @ [ ("core.unattributed_ms", "ms"); ("core.traced_wall_ms", "ms");
      ("exec.pool_speedup.eval", "ratio"); ("exec.pool_speedup.mine", "ratio");
      ("exec.store_read_ms", "ms"); ("exec.store_write_ms", "ms");
      ("exec.store_bytes", "bytes"); ("exec.cache_hit_ratio", "ratio");
      ("serve.exec_ms", "ms"); ("serve.wait_ms", "ms");
      ("serve.journal_append_ms", "ms"); ("serve.proto_ms", "ms");
      ("serve.response_kb", "KB"); ("serve.gen_lag_ms", "ms");
      ("serve.open_p50_ms", "ms"); ("serve.open_p95_ms", "ms");
      ("telemetry.overhead_ratio", "ratio"); ("guard.degraded", "count");
      ("error_rate", "ratio") ]

let emit ctx ~ok values =
  let spec = if ctx.trace then per_layer_metrics else e2e_metrics in
  let value name =
    match List.assoc_opt name values with
    | Some v when Float.is_finite v -> v
    | Some _ -> failwith (Printf.sprintf "metric %s is not finite" name)
    | None -> failwith (Printf.sprintf "metric %s was not measured" name)
  in
  Printf.printf "\nmetrics (%s):\n"
    (if ctx.trace then "per layer, traced run" else "end to end, telemetry off");
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-28s %14.4f %s\n" name (value name) unit)
    spec;
  Printf.printf "  error_rate %.4f (%d failed of %d attempted)\n"
    (ratio (float_of_int tally.failed) (float_of_int tally.attempted))
    tally.failed tally.attempted;
  List.iter (fun n -> Printf.printf "  FAILED: %s\n" n) (List.rev tally.notes);
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (value name)
          unit)
      spec
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (ok && tally.failed = 0) (max 1 tally.attempted) tally.failed
    (String.concat ", " metrics)

let print_accounting ~wall_ms rows =
  let attributed = sum (List.map snd rows) in
  Printf.printf "\nwhere the traced time went (%.1f ms traced wall):\n" wall_ms;
  List.iter
    (fun (k, v) ->
      Printf.printf "  %-28s %10.1f ms %5.1f%%\n" k v (100.0 *. ratio v wall_ms))
    (rows @ [ ("core.unattributed_ms", wall_ms -. attributed) ])

(* Per-layer values every workload reports; a layer a workload does not
   exercise reads 0. *)
let layer_values ?(wait_ms = []) ls ~wall_ms ~extra =
  let part = List.map (fun k -> (k, get ls.self_ms k)) partition_layers in
  print_accounting ~wall_ms (part @ wait_ms);
  part
  @ [ ("mining.alloc_mw",
       (get ls.self_w "mining.mine_ms" +. get ls.self_w "mining.mis_ms") /. 1e6);
      ("mapper.alloc_mw", get ls.self_w "mapper.map_ms" /. 1e6);
      ("cgra.alloc_mw", get ls.self_w "cgra.pnr_ms" /. 1e6);
      ("core.traced_wall_ms", wall_ms);
      ("core.unattributed_ms", wall_ms -. sum (List.map snd (part @ wait_ms)));
      ("error_rate", ratio (float_of_int tally.failed) (float_of_int tally.attempted)) ]
  @ extra
  @ List.map (fun (n, _) -> (n, 0.0)) per_layer_metrics

(* --- shared probes (traced runs) --- *)

(* the same pair-evaluation batch and the same mining call at width 1
   and at the default width, store off so both compute *)
let pool_probe ctx =
  Store.set_enabled false;
  Fun.protect ~finally:(fun () ->
      Store.set_enabled true;
      Pool.set_jobs ctx.jobs)
  @@ fun () ->
  with_fresh_memos @@ fun () ->
  let base = Dse.baseline () in
  let pairs =
    List.map (fun n -> (base, Apps.by_name n)) [ "gaussian"; "unsharp"; "laplacian"; "fast" ]
  in
  let camera = (Apps.by_name "camera").graph in
  let at jobs f =
    Pool.set_jobs jobs;
    fst (time f)
  in
  let eval () = ignore (Dse.evaluate_pairs pairs) in
  let mine () = ignore (Miner.mine Miner.default_config camera) in
  let e1 = at 1 eval and en = at ctx.jobs eval in
  let m1 = at 1 mine and mn = at ctx.jobs mine in
  Printf.printf "pool width probe: eval %.0f ms @1 vs %.0f ms @%d; mining %.0f ms @1 vs %.0f ms @%d\n"
    (ms e1) (ms en) ctx.jobs (ms m1) (ms mn) ctx.jobs;
  [ ("exec.pool_speedup.eval", ratio e1 en); ("exec.pool_speedup.mine", ratio m1 mn) ]

(* write then read back the pass's real artifacts through the store *)
let store_probe (values : (string * 'a) list) =
  let key k = Store.key ~version:"perfbench-probe/1" [ k ] in
  let wr, () =
    time (fun () ->
        List.iter (fun (k, v) -> Store.store ~ns:"perfbench-probe" ~key:(key k) v) values)
  in
  let rd, found =
    time (fun () ->
        List.for_all
          (fun (k, _) ->
            Option.is_some (Store.lookup ~ns:"perfbench-probe" ~key:(key k) : 'a option))
          values)
  in
  record tally found (fun () -> "store probe: an entry written was not read back");
  [ ("exec.store_write_ms", ms wr); ("exec.store_read_ms", ms rd) ]

let configspace_probe (variants : Variants.t list) =
  let dt, () =
    time (fun () ->
        List.iter
          (fun (v : Variants.t) ->
            ignore (Apex_verif.Configspace.analyze ~label:v.name v.dp))
          variants)
  in
  ("verif.configspace_ms", ms dt)

let counter_values (cold : Registry.snapshot) (warm : Registry.snapshot) =
  let c = counter cold in
  [ ("mining.embeddings", c "mining.embeddings_enumerated");
    ("mining.canon_hit_ratio",
     ratio (c "mining.canon_cache_hits") (c "mining.embeddings_enumerated"));
    ("merging.opportunities", c "merging.opportunities");
    ("smt.solver_calls", c "smt.solver_calls");
    ("mapper.map_calls", c "mapper.map_app_calls");
    ("mapper.match_ratio", ratio (c "mapper.matches_accepted") (c "mapper.cover_attempts"));
    ("core.pair_eval_ms", dist_sum cold "dse.pair_eval_ms");
    ("exec.store_bytes", c "exec.cache_bytes_written");
    ("exec.cache_hit_ratio",
     ratio (counter warm "exec.cache_hits")
       (counter warm "exec.cache_hits" +. counter warm "exec.cache_misses"));
    ("guard.degraded",
     List.fold_left
       (fun acc s -> acc +. counter s "guard.outcome.degraded" +. counter s "guard.outcome.skipped")
       0.0 [ cold; warm ]) ]

(* The traced run is serial, so the self-times of its spans partition
   its wall: an untraced cold+warm pair of passes, the traced pair, and
   another untraced pair; the mean of the untraced pairs is the base of
   telemetry.overhead_ratio. *)
type ('a, 'b, 'c) traced_run = {
  runs : 'a;  (** the traced cold pass's result *)
  cold_extra : 'b;
  warm_extra : 'c;
  cold : Registry.snapshot;
  warm : Registry.snapshot;
  traced_s : float;
  untraced_s : float;
}

let traced_passes ctx ~pass ~after_cold ~after_warm =
  Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Pool.set_jobs ctx.jobs) @@ fun () ->
  let untraced () =
    fresh_store ctx;
    let c, _ = with_fresh_memos (fun () -> time (fun () -> pass ~span:false)) in
    let w, _ = with_fresh_memos (fun () -> time (fun () -> pass ~span:false)) in
    c +. w
  in
  let before = untraced () in
  fresh_store ctx;
  let (tc, runs, cold), cold_extra =
    with_fresh_memos (fun () ->
        let tc, runs, cold = traced (fun () -> pass ~span:true) in
        ((tc, runs, cold), after_cold runs))
  in
  let (tw, _, warm), warm_extra =
    with_fresh_memos (fun () ->
        let tw, r, warm = traced (fun () -> pass ~span:true) in
        ((tw, r, warm), after_warm r))
  in
  let after = untraced () in
  { runs; cold_extra; warm_extra; cold; warm; traced_s = tc +. tw;
    untraced_s = (before +. after) /. 2.0 }

let traced_values t ~extra =
  let ls = new_layers () in
  accumulate ls (node_of_span t.cold.spans);
  accumulate ls (node_of_span t.warm.spans);
  layer_values ls ~wall_ms:(ms t.traced_s)
    ~extra:
      ((("telemetry.overhead_ratio", t.traced_s /. t.untraced_s) :: extra)
      @ counter_values t.cold t.warm)

(* --- dse-suite --- *)

type app_run = { app : string; secs : float; rows : Json.t }

(* Every timed pass starts from a compacted heap, so a pass does not
   pay for the garbage of the one before it. *)
let compacted f =
  Gc.compact ();
  f ()

(* one pass of the product DSE job over the apps, one job per app *)
let dse_pass ~steady ?(span = false) order =
  let job name () = Jobs.run (Jobs.Dse { apps = [ name ]; variants = [] }) in
  let job name = if span then Span.with_ ("app:" ^ name) (job name) else job name () in
  List.map2 (fun app (secs, rows) -> { app; secs; rows }) order (timed_map ~steady job order)

let pass_secs runs = sum (List.map (fun r -> r.secs) runs)

let rows_digest runs =
  List.sort (fun a b -> compare a.app b.app) runs
  |> List.map (fun r -> r.app ^ " " ^ Json.to_string r.rows)
  |> String.concat "\n" |> md5

let row_list = function Json.List l -> l | j -> [ j ]

let row_status j =
  match Json.member "status" j with Some (Json.String s) -> s | _ -> "?"

(* a job fails when any pair was skipped or failed; unmappable is a
   structural verdict of the flow, not a failure *)
let check_rows runs =
  List.iter
    (fun r ->
      let bad =
        List.filter
          (fun j -> not (List.mem (row_status j) [ "mapped"; "unmappable" ]))
          (row_list r.rows)
      in
      record tally (bad = []) (fun () -> r.app ^ ": a DSE pair was skipped or failed"))
    runs

type cgra_probe = {
  mutable place_s : float;
  mutable route_s : float;
  mutable iters : int;
  mutable simulated : int;  (** pairs checked by fabric simulation *)
  mutable unsupported : int;  (** pairs the fabric simulator rejects *)
}

let new_probe () =
  { place_s = 0.0; route_s = 0.0; iters = 0; simulated = 0; unsupported = 0 }

let print_sim probe =
  Printf.printf
    "fabric simulation: %d pairs simulated against the golden interpreter; %d \
     pairs rejected by Sim.run (undriven PE input after bitstream decode) and \
     checked on the mapped graph\n"
    probe.simulated probe.unsupported

let fabric_for mapped =
  (* the product's sizing rule: the 32x16 array, rows doubled to fit *)
  let rec fit height =
    let f = Apex_cgra.Fabric.create ~height () in
    if Apex_cgra.Fabric.n_pe_tiles f >= Cover.n_pes mapped then f
    else fit (height * 2)
  in
  fit 16

(* Bitstream + fabric simulation of one mapped pair against the golden
   interpreter on the seeded frames. *)
let sim_check probe ~frames (v : Variants.t) (app : Apps.t) =
  let what = Printf.sprintf "%s on %s" v.name app.name in
  match
    let a = Apex.Optimize.app app in
    let spec = Apex_peak.Spec.of_datapath ~name:v.name v.dp in
    let mapped = Cover.map_app ~rules:v.rules a.graph in
    let fabric = fabric_for mapped in
    let tp, placement = time (fun () -> Apex_cgra.Place.place ~effort:1 fabric mapped) in
    let tr, routes = time (fun () -> Apex_cgra.Route.route placement mapped) in
    probe.place_s <- probe.place_s +. tp;
    probe.route_s <- probe.route_s +. tr;
    probe.iters <- probe.iters + routes.Apex_cgra.Route.iterations;
    let plan =
      Apex_pipelining.App_pipeline.balance mapped
        ~pe_latency:(Apex_pipelining.Pe_pipeline.plan v.dp).stages
    in
    let bitstream = Apex_cgra.Bitstream.generate spec placement mapped routes in
    let report =
      Apex_cgra.Sim.run ~spec ~mapped ~plan ~bitstream ~placement ~frames
    in
    (List.map (Apex_dfg.Interp.run a.graph) frames, report.outputs)
  with
  | golden, outputs ->
      probe.simulated <- probe.simulated + 1;
      check_frames tally ~what golden outputs
  | exception Invalid_argument m
    when String.starts_with ~prefix:"Datapath.evaluate: input" m -> (
      (* Sim.run rejects configurations decoded from the bitstream that
         read a PE input port the mapping leaves undriven; such pairs are
         checked on the mapped graph (Cover.run) instead, and counted *)
      probe.unsupported <- probe.unsupported + 1;
      let a = Apex.Optimize.app app in
      match
        let mapped = Cover.map_app ~rules:v.rules a.graph in
        List.map
          (fun f -> (Apex_dfg.Interp.run a.graph f, Cover.run mapped v.dp f))
          frames
      with
      | pairs -> check_frames tally ~what (List.map fst pairs) (List.map snd pairs)
      | exception e -> record tally false (fun () -> what ^ ": " ^ Printexc.to_string e))
  | exception e -> record tally false (fun () -> what ^ ": " ^ Printexc.to_string e)

(* Inside the memo scope of a finished cold pass: simulate every mapped
   pair, and return the pass's variants. *)
let check_pairs probe frames runs =
  List.concat_map
    (fun r ->
      let pairs = Jobs.dse_pairs ~apps:[ Apps.by_name r.app ] ~variants:[] in
      List.map2
        (fun (_, v, app) row ->
          if row_status row = "mapped" then
            sim_check probe ~frames:(List.assoc r.app frames) v app;
          v)
        pairs (row_list r.rows))
    runs

let dse_setup ctx =
  let rng = Random.State.make [| ctx.seed |] in
  let frames =
    List.map
      (fun name ->
        let g = (Apps.by_name name).graph in
        (name, List.init 3 (fun _ -> Apex_dfg.Interp.random_env rng g)))
      all_app_names
  in
  fresh_store ctx;
  (frames, read_expected "dse-suite.md5")

(* warm passes are short, so each cold pass is followed by several *)
let warm_per_round = 6

let dse_suite ctx =
  let setup_s, setups = timed_setups ctx ~repeats:11 (fun _ -> dse_setup ctx) in
  let frames, expected = List.hd setups in
  let probe = new_probe () in
  let colds = ref [] and warms = ref [] and per_app = ref [] and lat = ref [] in
  let digest = ref "" in
  let check runs =
    check_rows runs;
    digest := rows_digest runs;
    check_digest tally ~what:"dse-suite rows" ~expected !digest
  in
  let pass () =
    compacted (fun () -> dse_pass ~steady:true (shuffle ctx.rng all_app_names))
  in
  let deadline = now () +. ctx.seconds in
  while now () < deadline do
    fresh_store ctx;
    let first = !colds = [] in
    let runs =
      with_fresh_memos (fun () ->
          let runs = pass () in
          if first then ignore (check_pairs probe frames runs);
          runs)
    in
    check runs;
    colds := pass_secs runs :: !colds;
    per_app := List.map (fun r -> (r.app, r.secs)) runs @ !per_app;
    for _ = 1 to warm_per_round do
      let runs = with_fresh_memos pass in
      check runs;
      warms := pass_secs runs :: !warms;
      lat := List.map (fun r -> ms r.secs) runs @ !lat
    done
  done;
  Printf.printf "dse-suite: %d cold and %d warm passes over %d apps; %d warm jobs timed\n"
    (List.length !colds) (List.length !warms) (List.length all_app_names)
    (List.length !lat);
  Printf.printf "rows digest %s\n" !digest;
  print_passes "cold" (List.rev !colds);
  print_passes "warm" (List.rev !warms);
  print_sim probe;
  ( !digest,
    [ ("setup_s", setup_s);
      ("cold_s", median !colds);
      ("warm_s", median !warms);
      ("app_geomean_ms", app_geomean_ms !per_app);
      ("req_p50_ms", median !lat);
      ("req_p95_ms", quantile !lat 0.95);
      ("goodput_rps",
       float_of_int (List.length all_app_names * (1 + warm_per_round))
       /. (median !colds +. (float_of_int warm_per_round *. median !warms)));
      ("peak_rss_mb", peak_rss_mb "self") ] )

let dse_suite_traced ctx =
  let frames, expected = dse_setup ctx in
  let order = shuffle ctx.rng all_app_names in
  let probe = new_probe () in
  let t =
    traced_passes ctx
      ~pass:(fun ~span -> dse_pass ~steady:false ~span order)
      ~after_cold:(check_pairs probe frames)
      ~after_warm:(fun runs ->
        (* the pass's pair results, read back warm, feed the store probe *)
        store_probe
          (List.map
             (fun r ->
               let pairs = Jobs.dse_pairs ~apps:[ Apps.by_name r.app ] ~variants:[] in
               (r.app, Dse.evaluate_pairs (List.map (fun (_, v, a) -> (v, a)) pairs)))
             runs))
  in
  print_sim probe;
  check_rows t.runs;
  let digest = rows_digest t.runs in
  check_digest tally ~what:"dse-suite rows" ~expected digest;
  let extra =
    [ configspace_probe t.cold_extra;
      ("cgra.place_ms", ms probe.place_s);
      ("cgra.route_ms", ms probe.route_s);
      ("cgra.route_iterations", float_of_int probe.iters) ]
    @ List.map (fun r -> ("core.app_ms." ^ r.app, ms r.secs)) t.runs
    @ t.warm_extra @ pool_probe ctx
  in
  (digest, traced_values t ~extra)

(* --- mine-deep --- *)

type mine_pass = {
  per_app : (string * float * Analysis.ranked list) list;
  domain : Variants.t list;
  secs : float;  (** the analyses and the domain PEs *)
}

let mine_pass ~steady ?(span = false) order =
  let graphs = List.map (fun n -> (Apps.by_name n).graph) order in
  let wrap name f = if span then Span.with_ ("app:" ^ name) f else f () in
  let analyses =
    timed_map ~steady
      (fun (n, g) -> wrap n (fun () -> fst (Analysis.analyze ~config:Miner.default_config g)))
      (List.combine order graphs)
  in
  let domain =
    timed_map ~steady (fun (n, f) -> wrap n f) [ ("pe_ip", Dse.pe_ip); ("pe_ml", Dse.pe_ml) ]
  in
  { per_app = List.map2 (fun n (secs, ranked) -> (n, secs, ranked)) order analyses;
    domain = List.map snd domain;
    secs = sum (List.map fst analyses) +. sum (List.map fst domain) }

(* the identity contract of the miner: pattern set, supports and MIS
   sizes per app, plus what the domain PEs were built from *)
let mine_digest p =
  let apps =
    List.sort compare (List.map (fun (n, _, r) -> (n, r)) p.per_app)
    |> List.map (fun (n, ranked) ->
           n ^ ":"
           ^ String.concat ";"
               (List.map
                  (fun (r : Analysis.ranked) ->
                    Printf.sprintf "%s/%d/%d" (Pattern.code r.pattern) r.support r.mis_size)
                  ranked))
  in
  let domain =
    List.map
      (fun (v : Variants.t) ->
        Printf.sprintf "%s:%s rules=%d nodes=%d" v.name
          (String.concat ";" (List.map Pattern.code v.patterns))
          (List.length v.rules)
          (Array.length v.dp.Apex_merging.Datapath.nodes))
      p.domain
  in
  md5 (String.concat "\n" (apps @ domain))

let mine_setup ctx =
  List.iter (fun n -> ignore (Apps.by_name n)) all_app_names;
  fresh_store ctx;
  read_expected "mine-deep.md5"

let mine_deep ctx =
  let setup_s, setups = timed_setups ctx ~repeats:11 (fun _ -> mine_setup ctx) in
  let expected = List.hd setups in
  let colds = ref [] and warms = ref [] and per_app = ref [] in
  let digest = ref "" in
  let checked_pass () =
    let p =
      with_fresh_memos (fun () ->
          compacted (fun () -> mine_pass ~steady:true (shuffle ctx.rng all_app_names)))
    in
    digest := mine_digest p;
    check_digest tally ~what:"mine-deep patterns" ~expected !digest;
    p
  in
  let pass () =
    let p = checked_pass () in
    (* analysis never reads the store, so every pass's analyses are cold *)
    per_app := List.map (fun (n, s, _) -> (n, s)) p.per_app @ !per_app;
    p.secs
  in
  (* the first pass runs a quarter slower (first use of the code, the heap
     growing to its peak), so it is checked but not counted *)
  ignore (checked_pass ());
  let deadline = now () +. ctx.seconds in
  while now () < deadline do
    fresh_store ctx;
    colds := pass () :: !colds;
    warms := pass () :: !warms
  done;
  Printf.printf "mine-deep: %d cold and %d warm passes; %d analyses timed\n"
    (List.length !colds) (List.length !warms) (List.length !per_app);
  Printf.printf "pattern digest %s\n" !digest;
  let lat = List.map (fun (_, s) -> ms s) !per_app in
  print_passes "cold" (List.rev !colds);
  print_passes "warm" (List.rev !warms);
  ( !digest,
    [ ("setup_s", setup_s);
      ("cold_s", median !colds);
      ("warm_s", median !warms);
      ("app_geomean_ms", app_geomean_ms !per_app);
      ("req_p50_ms", median lat);
      ("req_p95_ms", quantile lat 0.95);
      (* a pass is one analysis per app and the two domain PEs *)
      ("goodput_rps",
       float_of_int (2 * (List.length all_app_names + 2)) /. (median !colds +. median !warms));
      ("peak_rss_mb", peak_rss_mb "self") ] )

let mine_deep_traced ctx =
  let expected = mine_setup ctx in
  let order = shuffle ctx.rng all_app_names in
  let t =
    traced_passes ctx
      ~pass:(fun ~span -> mine_pass ~steady:false ~span order)
      ~after_cold:(fun p -> p)
      ~after_warm:(fun p -> store_probe (List.map (fun (n, _, r) -> (n, r)) p.per_app))
  in
  let digest = mine_digest t.runs in
  check_digest tally ~what:"mine-deep patterns" ~expected digest;
  let extra =
    (configspace_probe t.runs.domain
    :: List.map (fun (n, s, _) -> ("core.app_ms." ^ n, ms s)) t.runs.per_app)
    @ t.warm_extra @ pool_probe ctx
  in
  (digest, traced_values t ~extra)

(* --- serve-mixed --- *)

(* Open-loop arrival rate, chosen so the daemon is about half busy on a
   2-core host; recorded in BENCHMARK.json. *)
let serve_rate = 20.0

let latency_limit_s = 0.25

let serve_apps = [ "gaussian"; "unsharp"; "laplacian"; "fast" ]

let tenants = [ "alpha"; "beta" ]

let templates =
  List.concat_map
    (fun a ->
      Jobs.
        [ Dse { apps = [ a ]; variants = [] };
          Map { app = a; variant = "base" };
          Mine { app = a; top = 5 };
          Analyze { apps = [ a ] };
          Lint { apps = [ a ] };
          Configs { apps = [ a ] } ])
    serve_apps

let job_app = function
  | Jobs.Dse { apps = [ a ]; _ } | Analyze { apps = [ a ] } | Lint { apps = [ a ] }
  | Configs { apps = [ a ] } | Map { app = a; _ } | Mine { app = a; _ } ->
      a
  | _ -> "?"

type daemon = { pid : int; dir : string; sock : string }

let try_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> true
  | exception Unix.Unix_error _ -> false

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ()

let spawn_daemon ctx ~dir =
  fresh_dir dir;
  let sock = Filename.concat dir "serve.sock" in
  let inherited =
    List.filter
      (fun kv ->
        not
          (List.exists
             (fun p -> String.starts_with ~prefix:p kv)
             [ "APEX_CACHE_DIR="; "APEX_TRACE="; "APEX_JOBS="; "APEX_FAULT=" ]))
      (Array.to_list (Unix.environment ()))
  in
  let env = Array.of_list (("APEX_CACHE_DIR=" ^ Filename.concat dir "store") :: inherited) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
    Unix.create_process_env ctx.apex
      [| ctx.apex; "serve"; "--socket"; sock; "--jobs"; string_of_int ctx.jobs;
         "--max-queue"; "64"; "--journal"; Filename.concat dir "journal" |]
      env null null null
  in
  let d = { pid; dir; sock } in
  let deadline = now () +. 30.0 in
  let rec ready () =
    if try_connect sock then d
    else if now () > deadline || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
      stop_daemon d;
      failwith "serve daemon did not come up"
    end
    else begin
      Unix.sleepf 0.002;
      ready ()
    end
  in
  ready ()

type served = {
  job : Jobs.t;
  tenant : string;
  due : float;
  sent : float;
  answered : float;
  resp : (Json.t, string) result;
}

let latency s = s.answered -. s.due

let submit conn tenant job =
  match Client.request conn { Proto.tenant; job; deadline_s = None } with
  | Proto.Ok report -> Ok report
  | Proto.Error e -> Error (e.kind ^ ": " ^ e.message)
  | exception (Sys_error m | Invalid_argument m) -> Error m

(* each job in turn on one connection, with its latency *)
let closed_loop ~steady sock tenant jobs =
  let conn = Client.connect sock in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  timed_map ~steady (fun job -> (job, submit conn tenant job)) jobs

let check_response tenant job resp =
  record tally (Result.is_ok resp) (fun () ->
      Printf.sprintf "serve %s %s for %s: %s" (Jobs.kind job) (job_app job) tenant
        (match resp with Error m -> m | Ok _ -> ""))

let check_served s = check_response s.tenant s.job s.resp

(* One closed-loop pass of every template for [tenant]; returns the sum
   of its latencies, each app's share and the latencies.  A tenant's
   first pass is cold: artifact sharing in the daemon is per tenant. *)
let tenant_pass ~steady sock tenant =
  let answers = closed_loop ~steady sock tenant templates in
  List.iter (fun (_, (job, resp)) -> check_response tenant job resp) answers;
  let per_app a =
    sum (List.filter_map (fun (secs, (job, _)) -> if job_app job = a then Some secs else None) answers)
  in
  (sum (List.map fst answers), List.map (fun a -> (a, per_app a)) serve_apps, List.map fst answers)

(* a fresh daemon with one pass per tenant *)
let serve_setup ctx i =
  let d = spawn_daemon ctx ~dir:(Filename.concat ctx.scratch (Printf.sprintf "serve%d" i)) in
  match List.iter (fun t -> ignore (tenant_pass ~steady:false d.sock t : _ * _ * _)) tenants with
  | () -> d
  | exception e ->
      stop_daemon d;
      raise e

(* Fixed-spacing arrivals at [serve_rate].  The requests deal every
   (tenant, job) pair once per round, in an order the seed shuffles anew
   each round, so every seed sends the same mix.  Request i goes out on
   connection i mod 2 at its due time, or as soon as that connection is
   free. *)
let open_loop ctx ~seconds sock =
  let n = max 1 (int_of_float (serve_rate *. seconds)) in
  let pairs = List.concat_map (fun t -> List.map (fun j -> (t, j)) templates) tenants in
  let deck =
    Array.concat
      (List.init ((n / List.length pairs) + 1) (fun _ -> Array.of_list (shuffle ctx.rng pairs)))
  in
  let sched =
    Array.init n (fun i ->
        let tenant, job = deck.(i) in
        (float_of_int i /. serve_rate, tenant, job))
  in
  let out = Array.make n None in
  let t0 = now () +. 0.05 in
  let worker c =
    let conn = Client.connect sock in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    Array.iteri
      (fun i (off, tenant, job) ->
        if i mod 2 = c then begin
          let due = t0 +. off in
          let wait = due -. now () in
          if wait > 0.0 then Thread.delay wait;
          let sent = now () in
          let resp = submit conn tenant job in
          out.(i) <- Some { job; tenant; due; sent; answered = now (); resp }
        end)
      sched
  in
  List.iter Thread.join (List.init 2 (Thread.create worker));
  Array.to_list out |> List.filter_map Fun.id

(* where two renderings of a result first differ, for failure notes *)
let first_difference a b =
  let rec first i =
    if i < String.length a && i < String.length b && a.[i] = b.[i] then first (i + 1)
    else i
  in
  let i = first 0 in
  let around s = String.sub s (max 0 (i - 40)) (min 80 (String.length s - max 0 (i - 40))) in
  Printf.sprintf "at byte %d: %S vs %S" i (around a) (around b)

(* Served results must equal the same job run standalone on a store in
   the same state.  The daemon's tenant stores are warm, so the job runs
   standalone twice on a fresh store and the served results are compared
   with the second (warm) run.  A cold run that differs from its warm
   rerun is a store round-trip defect of the product; it is reported, and
   counted nowhere else because it does not depend on serving. *)
let standalone_check ctx served =
  let ok = List.filter (fun s -> Result.is_ok s.resp) served |> Array.of_list in
  for i = 1 to min 2 (Array.length ok) do
    let s = ok.(Random.State.int ctx.rng (Array.length ok)) in
    let dir = Filename.concat ctx.scratch (Printf.sprintf "standalone%d" i) in
    fresh_dir dir;
    Store.set_dir dir;
    let served_results =
      match s.resp with
      | Ok r -> Option.fold ~none:"" ~some:Json.to_string (Json.member "results" r)
      | Error _ -> ""
    in
    let run () = Json.to_string (with_fresh_memos (fun () -> Jobs.run s.job)) in
    let cold = run () in
    let warm = run () in
    if cold <> warm then
      Printf.printf "note: %s %s gives other results on a warm store than on a cold one %s\n"
        (Jobs.kind s.job) (job_app s.job) (first_difference warm cold);
    record tally (served_results = warm) (fun () ->
        Printf.sprintf "served %s %s differs from the standalone run %s" (Jobs.kind s.job)
          (job_app s.job) (first_difference served_results warm))
  done

(* The first half of the measured time runs closed-loop rounds: a new
   tenant's first (cold) pass, then two passes of a warmed tenant, whose
   requests give req_p50_ms and req_p95_ms as the warm jobs do on
   dse-suite.  The second half is the open-loop schedule, which gives
   goodput_rps.  Its latencies from the due time are printed, and traced
   as serve.open_p50_ms and serve.open_p95_ms, but are not end-to-end
   metrics: they cannot be scaled to the host speed (a calibration in the
   generator would delay the requests it sends, and calibrations beside
   it measure the daemon as much as the host), and unscaled they spread
   by a fifth between runs of the same code. *)
let serve_mixed ctx =
  let setup_s, daemons = timed_setups ctx ~repeats:3 (serve_setup ctx) in
  let d = List.nth daemons (List.length daemons - 1) in
  List.iter stop_daemon (List.filter (fun x -> x != d) daemons);
  let passes, warms, served, rss, schedule_s =
    Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
    let passes = ref [] and warms = ref [] in
    let deadline = now () +. (ctx.seconds /. 2.0) in
    while now () < deadline do
      let cold, per_app, _ =
        tenant_pass ~steady:true d.sock (Printf.sprintf "fresh%d" (List.length !passes))
      in
      passes := (cold, per_app) :: !passes;
      for _ = 1 to 2 do
        let warm, _, lat = tenant_pass ~steady:true d.sock (List.hd tenants) in
        warms := (warm, lat) :: !warms
      done
    done;
    let t0 = now () in
    let served = open_loop ctx ~seconds:(ctx.seconds /. 2.0) d.sock in
    (!passes, !warms, served, peak_rss_mb (string_of_int d.pid), now () -. t0)
  in
  List.iter check_served served;
  standalone_check ctx served;
  let open_lat = List.map (fun s -> ms (latency s)) served in
  let lat = List.concat_map (fun (_, l) -> List.map ms l) warms in
  let good =
    List.filter (fun s -> Result.is_ok s.resp && latency s <= latency_limit_s) served
  in
  let lags = List.map (fun s -> ms (s.sent -. s.due)) served in
  Printf.printf
    "serve-mixed: %d requests at %.0f/s over 2 connections; %d within %.0f ms; latency from \
     due time p50 %.1f ms, p95 %.1f ms (wall); generator lag mean %.2f ms, max %.2f ms\n"
    (List.length served) serve_rate (List.length good) (ms latency_limit_s)
    (median open_lat) (quantile open_lat 0.95) (mean lags)
    (List.fold_left Float.max 0.0 lags);
  Printf.printf "%d warm closed-loop requests timed\n" (List.length lat);
  print_passes "cold tenant" (List.map fst passes);
  print_passes "warm" (List.map fst warms);
  ( "",
    [ ("setup_s", setup_s);
      ("cold_s", median (List.map fst passes));
      ("warm_s", median (List.map fst warms));
      ("app_geomean_ms", app_geomean_ms (List.concat_map snd passes));
      ("req_p50_ms", median lat);
      ("req_p95_ms", quantile lat 0.95);
      (* answered in time, per second from the schedule's start to its
         last answer *)
      ("goodput_rps", float_of_int (List.length good) /. schedule_s);
      ("peak_rss_mb", rss) ] )

let journal_probe ctx served =
  let path = Filename.concat ctx.scratch "probe.journal" in
  let j, _ = Journal.open_ path in
  let reqs =
    List.filteri (fun i _ -> i < 100) served
    |> List.map (fun s -> { Proto.tenant = s.tenant; job = s.job; deadline_s = None })
  in
  let dt, () =
    time (fun () ->
        List.iter
          (fun r ->
            let id = Journal.admit j r in
            Journal.started j id;
            Journal.finished j id)
          reqs)
  in
  Journal.close j;
  ms dt /. float_of_int (max 1 (List.length reqs))

(* encode, frame, unframe and decode every real response over a
   socket pair; returns (mean ms, mean KB) per response *)
let proto_probe served =
  let payloads =
    List.map
      (fun s ->
        Proto.response_to_json
          (match s.resp with
          | Ok r -> Proto.Ok r
          | Error m -> Proto.Error { code = 3; kind = "io-error"; message = m }))
      served
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  let bytes = ref 0 in
  let dt, () =
    time (fun () ->
        let writer =
          Thread.create
            (fun () ->
              List.iter
                (fun p ->
                  let s = Json.to_string p in
                  bytes := !bytes + String.length s;
                  Proto.write_frame a s)
                payloads)
            ()
        in
        List.iter
          (fun _ ->
            match Proto.read_frame b with
            | Some s -> (
                match Json.of_string s with
                | Ok j -> ignore (Proto.response_of_json j)
                | Error m -> failwith ("proto probe: " ^ m))
            | None -> failwith "proto probe: early end of stream")
          payloads;
        Thread.join writer)
  in
  let n = float_of_int (max 1 (List.length payloads)) in
  (ms dt /. n, float_of_int !bytes /. 1024.0 /. n)

let serve_mixed_traced ctx =
  let d = serve_setup ctx 0 in
  let cold_apps, served, plain, tracedw =
    Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
    let _, cold_apps, _ = tenant_pass ~steady:false d.sock "fresh" in
    (* the daemon reports telemetry with every answer, so the traced
       pass differs from the plain one by reading those reports *)
    let plain, _ = time (fun () -> closed_loop ~steady:false d.sock "alpha" templates) in
    let tracedw, _ =
      time (fun () ->
          List.iter
            (fun (_, (_, resp)) ->
              match resp with
              | Ok r -> Option.iter (fun sp -> ignore (node_of_json sp)) (Json.member "spans" r)
              | Error _ -> ())
            (closed_loop ~steady:false d.sock "alpha" templates))
    in
    (cold_apps, open_loop ctx ~seconds:ctx.seconds d.sock, plain, tracedw)
  in
  List.iter check_served served;
  standalone_check ctx served;
  let ls = new_layers () in
  let execs =
    List.map
      (fun s ->
        match s.resp with
        | Ok r -> (
            match Json.member "spans" r with
            | Some sp ->
                let n = node_of_json sp in
                accumulate ls n;
                n.total_ms
            | None -> 0.0)
        | Error _ -> 0.0)
      served
  in
  let counters k =
    sum
      (List.map
         (fun s ->
           match s.resp with
           | Ok r -> (
               match Option.bind (Json.member "counters" r) (Json.member k) with
               | Some (Json.Int i) -> float_of_int i
               | _ -> 0.0)
           | Error _ -> 0.0)
         served)
  in
  let lat = List.map (fun s -> ms (latency s)) served in
  let waits = List.map2 ( -. ) lat execs in
  let proto_ms, kb = proto_probe served in
  let extra =
    [ ("mining.embeddings", counters "mining.embeddings_enumerated");
      ("mining.canon_hit_ratio",
       ratio (counters "mining.canon_cache_hits") (counters "mining.embeddings_enumerated"));
      ("merging.opportunities", counters "merging.opportunities");
      ("smt.solver_calls", counters "smt.solver_calls");
      ("mapper.map_calls", counters "mapper.map_app_calls");
      ("mapper.match_ratio",
       ratio (counters "mapper.matches_accepted") (counters "mapper.cover_attempts"));
      ("exec.store_bytes", counters "exec.cache_bytes_read");
      ("exec.cache_hit_ratio",
       ratio (counters "exec.cache_hits")
         (counters "exec.cache_hits" +. counters "exec.cache_misses"));
      ("guard.degraded",
       counters "guard.outcome.degraded" +. counters "guard.outcome.skipped");
      ("serve.exec_ms", mean execs);
      ("serve.wait_ms", mean waits);
      ("serve.journal_append_ms", journal_probe ctx served);
      ("serve.proto_ms", proto_ms);
      ("serve.response_kb", kb);
      ("serve.gen_lag_ms", mean (List.map (fun s -> ms (s.sent -. s.due)) served));
      ("serve.open_p50_ms", median lat);
      ("serve.open_p95_ms", quantile lat 0.95);
      ("telemetry.overhead_ratio", tracedw /. plain) ]
    @ store_probe (List.mapi (fun i s -> (string_of_int i, s.resp)) served)
    @ List.map (fun (a, s) -> ("core.app_ms." ^ a, ms s)) cold_apps
    @ pool_probe ctx
  in
  (* a request's latency is its flow spans, the rest of its execution
     (core.unattributed_ms) and queueing plus transport (serve.wait_ms) *)
  ("", layer_values ls ~wall_ms:(sum lat) ~wait_ms:[ ("serve.wait_ms", sum waits) ] ~extra)

(* --- main --- *)

let usage () =
  prerr_endline
    "usage: apexbench --workload dse-suite|mine-deep|serve-mixed --seed N \
     --seconds S --trace 0|1 --apex PATH";
  exit 2

(* Starting this executable up to its main, module initialisation
   included: the median of a few spawns that exit on entering main. *)
let startup_s () =
  let spawn _ =
    let exe = Sys.executable_name in
    let pid = Unix.create_process exe [| exe; "--startup" |] Unix.stdin Unix.stdout Unix.stderr in
    ignore (Unix.waitpid [] pid)
  in
  median (List.map fst (steady_map spawn (List.init 15 Fun.id)))

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--startup" then exit 0;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let arg k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let seed = int_of_string (arg "--seed") in
  let workload = arg "--workload" in
  let scratch =
    Filename.concat ".perfbench_tmp" (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  let ctx =
    { workload;
      seed;
      seconds = float_of_string (arg "--seconds");
      trace = arg "--trace" = "1";
      apex = arg "--apex";
      startup_s = startup_s ();
      scratch;
      rng = Random.State.make [| seed; 0x5eed |];
      jobs = Pool.default_jobs () }
  in
  Pool.set_jobs ctx.jobs;
  Registry.disable ();
  fresh_dir scratch;
  Store.set_enabled true;
  Printf.printf "APEX flow benchmark: workload %s, seed %d, %.0f s, trace %b, pool width %d\n%!"
    workload seed ctx.seconds ctx.trace ctx.jobs;
  let run =
    match (workload, ctx.trace) with
    | "dse-suite", false -> dse_suite
    | "dse-suite", true -> dse_suite_traced
    | "mine-deep", false -> mine_deep
    | "mine-deep", true -> mine_deep_traced
    | "serve-mixed", false -> serve_mixed
    | "serve-mixed", true -> serve_mixed_traced
    | _ -> usage ()
  in
  let digest, values =
    Fun.protect (fun () -> run ctx) ~finally:(fun () ->
        rm_rf scratch;
        try Unix.rmdir (Filename.dirname scratch) with Unix.Unix_error _ -> ())
  in
  if !calibrations <> [] then
    Printf.printf "host speed: %d calibrations on %d cores, quartiles %.2f %.2f %.2f ms (reference %.0f ms)\n"
      (List.length !calibrations) cores
      (ms (quantile !calibrations 0.25)) (ms (median !calibrations))
      (ms (quantile !calibrations 0.75)) (ms reference_s);
  let ok = self_test ~digest:(if digest = "" then md5 "serve" else digest) in
  if not ok then print_endline "SELF-TEST FAILED: the checks did not report a planted error";
  emit ctx ~ok values
