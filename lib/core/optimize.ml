(* Opt-in graph optimization gate for the DSE flow (the CLI's
   --optimize flag).

   When enabled, every application graph entering mining, merging,
   mapping or linting is first reduced by [Apex_analysis.Opt.run] —
   constant folding, identities, CSE, dead-node elimination — so the
   whole flow works on smaller, redundancy-free kernels.  Optimization
   is memoized per application name in the process and in the store
   (ns [optimize], on the raw graph); the flag is set once at process
   start (before any variant is built), and the DSE memo keys carry an
   ":opt" suffix so a mixed-state process cannot alias cached
   variants. *)

module Apps = Apex_halide.Apps
module Opt = Apex_analysis.Opt
module Counter = Apex_telemetry.Counter
module Span = Apex_telemetry.Span

let enabled = ref false

let enable () = enabled := true

let disable () = enabled := false

let is_enabled () = !enabled

let key_suffix () = if !enabled then ":opt" else ""

(* read by DSE pool runners while the producing domain may insert *)
let cache : (string, Apps.t) Hashtbl.t = Hashtbl.create 16

let cache_lock = Mutex.create ()

let app (a : Apps.t) =
  if not !enabled then a
  else
    match
      Mutex.protect cache_lock (fun () -> Hashtbl.find_opt cache a.Apps.name)
    with
    | Some a' -> a'
    | None ->
        let graph =
          Span.with_ ("optimize:" ^ a.Apps.name) (fun () ->
              (* keyed on the raw graph; a deadline-degraded rewrite
                 records a degraded outcome, so it is never stored *)
              Apex_exec.Store.memoize ~ns:"optimize"
                ~key:(Apex_exec.Store.key ~version:"optimize/1" a.Apps.graph)
                (fun () -> (Opt.run a.Apps.graph).Opt.graph))
        in
        Counter.incr "analysis.apps_optimized";
        let a' = { a with Apps.graph } in
        Mutex.protect cache_lock (fun () ->
            Hashtbl.replace cache a.Apps.name a');
        a'
