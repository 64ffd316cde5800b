(* Named monotonic counters, gauges, and min/max/mean distributions.
   All no-ops while the registry is disabled, except that an open
   [tally] still sees its thread's counters. *)

let incr name = Registry.counter_add name 1

let add name n = Registry.counter_add name n

let get name = Registry.counter_get name

let set_gauge name v = Registry.gauge_set name v

let observe name v = Registry.observe name v

(* For instrumentation whose *computation* of the value is itself
   costly: the thunk only runs while telemetry is enabled (or a tally
   is open). *)
let add_lazy name f =
  if Registry.counting () then Registry.counter_add name (f ())

(* [tally f] is [f ()] with the counters it added on this thread, by
   name, whether or not telemetry is enabled (see Registry.tally) *)
let tally = Registry.tally

(* Time [f] and feed the elapsed milliseconds into the distribution
   [name], so reports can show per-occurrence latency percentiles that
   the aggregated span tree cannot.  By convention such timing
   distributions end in "_ms"; report-diff treats the suffix as a
   timing field and drops it when comparing runs. *)
let time name f =
  if not (Registry.is_enabled ()) then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        Registry.observe name (1e3 *. (Unix.gettimeofday () -. t0)))
  end
