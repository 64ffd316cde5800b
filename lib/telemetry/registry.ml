(* In-memory telemetry registry with scoped aggregates.

   Everything is gated on [enabled]: when the registry is disabled (the
   default) every instrumentation entry point is a branch on one atomic
   bool and returns immediately — no clock reads, no hashtable traffic,
   no span allocation.  [spans_created] exists so the test suite can
   assert that fast path.

   Spans aggregate by (parent path, name): entering "merging" two
   hundred times under the same parent produces one node with count 200
   and the summed wall-clock time, which keeps both memory and the
   report bounded no matter how hot the instrumented loop is.

   Scopes: all aggregate state — the span tree, counters, gauges,
   distributions — lives in a [scope] record.  The process starts with
   one global scope and every call site that doesn't ask for anything
   else keeps writing to it, so a CLI run behaves exactly as before.
   A concurrent server runs each request under [with_scope
   (new_scope ())] so two in-flight requests aggregate into disjoint
   trees and produce the same reports they would produce alone.  The
   *current* scope is local to the *system thread* (not the domain: all
   of a domain's sys-threads share its Domain.DLS slots, and a server
   whose connection threads and inline-executed requests coexist on the
   main domain must not race on one shared current-scope cell); a fresh
   thread — including a fresh domain's initial thread — starts in the
   global scope.

   Domain safety: scopes may still be shared across domains (the
   Exec.Pool workers of one request all write to that request's scope),
   so all aggregate state is guarded by one process-wide mutex; the
   *span stack* is thread-local (each thread nests its own spans), and
   a pool task inherits the submitting thread's scope and a detached
   stand-in for its current span via [context]/[detach]/[with_context];
   [merge] grafts the stand-in's children under the real span, so the
   task's spans aggregate under the same (parent, name) keys, and in
   the same child order, a serial run would produce. *)

type dist = {
  mutable n : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  (* raw samples for percentile reporting, capped so a pathological
     observation loop cannot exhaust memory; n keeps counting past the
     cap and min/max stay exact, so only mid-quantiles coarsen *)
  mutable stored : int;
  mutable samples : float array;
}

type span = {
  name : string;
  mutable count : int;
  mutable total_s : float;
  (* per-span allocation deltas (Gc.counters before/after, so the
     words of the span's own domain), aggregated like total_s: how much
     allocation each phase is responsible for *)
  mutable minor_words : float;
  mutable major_words : float;
  mutable rev_order : string list; (* child names, most recent first *)
  children : (string, span) Hashtbl.t;
}

let enabled = Atomic.make false

let enable () = Atomic.set enabled true

let disable () = Atomic.set enabled false

let is_enabled () = Atomic.get enabled

(* one lock for all aggregate state; every section under it is short
   (hashtable lookup + a few field writes), so contention stays low
   even with a full domain pool hammering counters *)
let lock = Mutex.create ()

let locked f = Mutex.protect lock f

let new_span ~scope_alloc name =
  (match scope_alloc with None -> () | Some r -> incr r);
  { name;
    count = 0;
    total_s = 0.0;
    minor_words = 0.0;
    major_words = 0.0;
    rev_order = [];
    children = Hashtbl.create 4 }

let new_root () =
  let r = new_span ~scope_alloc:None "root" in
  r.count <- 1;
  r

let children_in_order sp =
  List.rev_map (fun name -> Hashtbl.find sp.children name) sp.rev_order

(* --- scopes --- *)

type scope = {
  mutable root : span;
  spans_allocated : int ref;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  dists : (string, dist) Hashtbl.t;
}

let new_scope () =
  { root = new_root ();
    spans_allocated = ref 0;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    dists = Hashtbl.create 16 }

let global_scope = new_scope ()

(* Current scope and span stack, keyed by *system thread*.  Domain.DLS
   would be the wrong granularity: every Thread.create thread of a
   domain shares that domain's DLS slots, so the serve daemon — whose
   connection threads, scheduler thread, and inline-executed requests
   all live on the main domain — would race one shared current-scope
   cell, and a save/set/restore window in one thread could leak another
   thread's counters into the wrong scope or pin the domain to a dead
   request scope.  The record's fields are only ever touched by the
   owning thread; [tlock] guards just the table structure.  An entry is
   dropped as soon as it is back to the default state, so the table is
   bounded by the threads concurrently using telemetry, not by every
   thread ever started. *)

type tstate = {
  mutable sc : scope; (* current scope *)
  mutable st : span list; (* span stack, innermost first *)
  mutable pinned : int; (* live [with_scope] frames *)
}

let tlock = Mutex.create ()

let tstates : (int, tstate) Hashtbl.t = Hashtbl.create 16

let tstate () =
  let id = Thread.id (Thread.self ()) in
  Mutex.protect tlock (fun () ->
      match Hashtbl.find_opt tstates id with
      | Some ts -> ts
      | None ->
          let ts = { sc = global_scope; st = []; pinned = 0 } in
          Hashtbl.replace tstates id ts;
          ts)

let maybe_drop ts =
  let default =
    ts.pinned = 0 && ts.sc == global_scope
    && match ts.st with [] -> true | _ -> false
  in
  if default then
    Mutex.protect tlock (fun () ->
        Hashtbl.remove tstates (Thread.id (Thread.self ())))

let cur () = (tstate ()).sc

(* Run [f] with [sc] as this thread's scope and a fresh span stack;
   both are restored on exit, so scopes nest.  The scope record itself
   may be shared with other threads (a request's pool workers), which
   is why all aggregate access stays under the global lock. *)
let with_scope sc f =
  let ts = tstate () in
  let saved_scope = ts.sc in
  let saved_stack = ts.st in
  ts.sc <- sc;
  ts.st <- [];
  ts.pinned <- ts.pinned + 1;
  Fun.protect f
    ~finally:(fun () ->
      ts.sc <- saved_scope;
      ts.st <- saved_stack;
      ts.pinned <- ts.pinned - 1;
      maybe_drop ts)

let spans_created () =
  let sc = cur () in
  locked (fun () -> !(sc.spans_allocated))

(* --- trace events (the Chrome trace-event exporter's feed) ---

   Off by default even while the registry is enabled: event collection
   keeps one record per span *occurrence* (not per (parent, name)
   aggregate), which is exactly what a timeline needs and exactly what
   the bounded aggregate tree exists to avoid.  [set_events true] is
   therefore opt-in per run (`apex profile --chrome-trace`).  Each
   event carries the recording domain's id as its tid, so spans run on
   Exec.Pool workers land on their own timeline rows.  Events stay
   process-global (one timeline per process, whatever the scope). *)

type event = { ev_name : string; ts_us : float; dur_us : float; tid : int }

let events_flag = Atomic.make false

let set_events b = Atomic.set events_flag b

let events_enabled () = Atomic.get events_flag

let max_events = 1_000_000

let epoch = ref 0.0

let ev_buf : event list ref = ref []

let ev_count = ref 0

let ev_dropped = ref 0

let record_event name ~t0 ~t1 =
  let tid = (Domain.self () :> int) in
  locked (fun () ->
      if !ev_count >= max_events then incr ev_dropped
      else begin
        incr ev_count;
        ev_buf :=
          { ev_name = name;
            ts_us = Float.max 0.0 (1e6 *. (t0 -. !epoch));
            dur_us = Float.max 0.0 (1e6 *. (t1 -. t0));
            tid }
          :: !ev_buf
      end)

let events () =
  locked (fun () -> !ev_buf)
  |> List.stable_sort (fun a b -> compare a.ts_us b.ts_us)

let events_dropped () = locked (fun () -> !ev_dropped)

let reset () =
  let ts = tstate () in
  let sc = ts.sc in
  locked (fun () ->
      sc.root <- new_root ();
      ts.st <- [];
      sc.spans_allocated := 0;
      Hashtbl.reset sc.counters;
      Hashtbl.reset sc.gauges;
      Hashtbl.reset sc.dists;
      (* the event timeline is process-global; only a reset of the
         global scope rewinds it, so a request scope resetting itself
         cannot clobber a concurrent profile's trace *)
      if sc == global_scope then begin
        epoch := Unix.gettimeofday ();
        ev_buf := [];
        ev_count := 0;
        ev_dropped := 0
      end)

(* --- spans (used via Span.with_) --- *)

let current () =
  let ts = tstate () in
  match ts.st with sp :: _ -> sp | [] -> ts.sc.root

let enter name =
  let ts = tstate () in
  let sc = ts.sc in
  let sp =
    (* parent resolution stays under the lock: a concurrent [reset] of
       this scope may swap [sc.root] out from under us *)
    locked (fun () ->
        let parent =
          match ts.st with sp :: _ -> sp | [] -> sc.root
        in
        let sp =
          match Hashtbl.find_opt parent.children name with
          | Some sp -> sp
          | None ->
              let sp = new_span ~scope_alloc:(Some sc.spans_allocated) name in
              Hashtbl.replace parent.children name sp;
              parent.rev_order <- name :: parent.rev_order;
              sp
        in
        sp.count <- sp.count + 1;
        sp)
  in
  ts.st <- sp :: ts.st;
  sp

let leave sp ~dt ~minor ~major =
  locked (fun () ->
      sp.total_s <- sp.total_s +. dt;
      sp.minor_words <- sp.minor_words +. minor;
      sp.major_words <- sp.major_words +. major);
  let ts = tstate () in
  (match ts.st with
  | top :: rest when top == sp -> ts.st <- rest
  | _ ->
      (* a reset happened inside the span: drop whatever is stale *)
      ts.st <- List.filter (fun s -> not (s == sp)) ts.st);
  maybe_drop ts

(* --- fork-join context hand-off (used by Exec.Pool) --- *)

(* the submitting domain's scope and current span, to be installed as
   a worker's base so the worker's spans nest exactly where serial
   execution would have put them — and in the same scope *)
type context = { ctx_scope : scope; ctx_span : span }

let context () = { ctx_scope = cur (); ctx_span = current () }

let with_context ctx f =
  with_scope ctx.ctx_scope (fun () ->
      (tstate ()).st <- [ ctx.ctx_span ];
      f ())

(* A context whose span is a fresh node outside the tree, standing in
   for [ctx]'s span: a pool task records into it, and [merge] grafts
   its children under the real span.  Concurrent tasks then cannot race
   on the first-occurrence order of a shared parent's children; the
   pool merges in submission order, which is the order a serial run
   creates them in.  While the registry is disabled nothing is
   recorded, so the context is returned as is. *)
let detach ctx =
  if not (Atomic.get enabled) then ctx
  else { ctx with ctx_span = new_span ~scope_alloc:None ctx.ctx_span.name }

let rec merge_children dst src =
  List.iter
    (fun c ->
      match Hashtbl.find_opt dst.children c.name with
      | None ->
          Hashtbl.replace dst.children c.name c;
          dst.rev_order <- c.name :: dst.rev_order
      | Some d ->
          d.count <- d.count + c.count;
          d.total_s <- d.total_s +. c.total_s;
          d.minor_words <- d.minor_words +. c.minor_words;
          d.major_words <- d.major_words +. c.major_words;
          merge_children d c)
    (children_in_order src)

let merge ~into part =
  if part.ctx_span != into.ctx_span then
    locked (fun () -> merge_children into.ctx_span part.ctx_span)

(* --- tallies ---

   [tally f] collects every counter [f] adds on the calling thread,
   whether or not the registry is enabled.  It exists for memoized
   phases: the counters a computation emitted are stored with its
   result, so a later cache hit can replay them even when the entry was
   written by an untraced run (whose registry recorded nothing).  The
   count of open tallies is domain-local, so a counter on a domain with
   none open (a pool runner evaluating pairs) pays one extra atomic
   read and never takes [tally_lock]. *)

let tallying_key : int Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make 0)

let tallying () = Atomic.get (Domain.DLS.get tallying_key) > 0

let tally_lock = Mutex.create ()

let tallies : (int, (string, int ref) Hashtbl.t) Hashtbl.t = Hashtbl.create 4

let bump tbl name n =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl name (ref n)

let tally_add name n =
  if tallying () then begin
    let id = Thread.id (Thread.self ()) in
    Mutex.protect tally_lock (fun () ->
        match Hashtbl.find_opt tallies id with
        | Some tbl -> bump tbl name n
        | None -> ())
  end

let counting () = Atomic.get enabled || tallying ()

(* a nested tally also feeds the enclosing one, on exit *)
let tally f =
  let id = Thread.id (Thread.self ()) in
  let tbl = Hashtbl.create 16 in
  let outer =
    Mutex.protect tally_lock (fun () ->
        let outer = Hashtbl.find_opt tallies id in
        Hashtbl.replace tallies id tbl;
        outer)
  in
  let open_tallies = Domain.DLS.get tallying_key in
  Atomic.incr open_tallies;
  let close () =
    Atomic.decr open_tallies;
    Mutex.protect tally_lock (fun () ->
        match outer with
        | None -> Hashtbl.remove tallies id
        | Some o ->
            Hashtbl.iter (fun name r -> bump o name !r) tbl;
            Hashtbl.replace tallies id o)
  in
  let v = Fun.protect f ~finally:close in
  let counts = Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl [] in
  (v, List.sort compare counts)

(* --- counters, gauges, distributions --- *)

let counter_add name n =
  tally_add name n;
  if Atomic.get enabled then begin
    let sc = cur () in
    locked (fun () ->
        match Hashtbl.find_opt sc.counters name with
        | Some r -> r := !r + n
        | None -> Hashtbl.replace sc.counters name (ref n))
  end

let counter_get name =
  let sc = cur () in
  locked (fun () ->
      match Hashtbl.find_opt sc.counters name with Some r -> !r | None -> 0)

let gauge_set name v =
  if Atomic.get enabled then begin
    let sc = cur () in
    locked (fun () -> Hashtbl.replace sc.gauges name v)
  end

let gauge_get name =
  let sc = cur () in
  locked (fun () -> Hashtbl.find_opt sc.gauges name)

let max_samples = 65_536

let push_sample d v =
  if d.stored < max_samples then begin
    if d.stored = Array.length d.samples then begin
      let cap = min max_samples (max 8 (2 * Array.length d.samples)) in
      let bigger = Array.make cap 0.0 in
      Array.blit d.samples 0 bigger 0 d.stored;
      d.samples <- bigger
    end;
    d.samples.(d.stored) <- v;
    d.stored <- d.stored + 1
  end

let observe name v =
  if Atomic.get enabled then begin
    let sc = cur () in
    locked (fun () ->
        match Hashtbl.find_opt sc.dists name with
        | Some d ->
            d.n <- d.n + 1;
            d.sum <- d.sum +. v;
            if v < d.min_v then d.min_v <- v;
            if v > d.max_v then d.max_v <- v;
            push_sample d v
        | None ->
            let d =
              { n = 1; sum = v; min_v = v; max_v = v; stored = 0;
                samples = [||] }
            in
            push_sample d v;
            Hashtbl.replace sc.dists name d)
  end

let copy_dist d = { d with samples = Array.sub d.samples 0 d.stored }

let dist_get name =
  let sc = cur () in
  locked (fun () ->
      match Hashtbl.find_opt sc.dists name with
      | Some d -> Some (copy_dist d)
      | None -> None)

(* Nearest-rank percentile over the stored samples, [p] in [0, 1]: a
   single sample is every percentile of itself, ties collapse onto the
   tied value.  Past the storage cap mid-quantiles are computed over
   the first [max_samples] observations (min/max stay exact). *)
let percentile (d : dist) p =
  if d.stored = 0 then Float.nan
  else begin
    let s = Array.sub d.samples 0 d.stored in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int d.stored)) in
    s.(max 1 (min d.stored rank) - 1)
  end

(* --- snapshots --- *)

type snapshot = {
  spans : span; (* a deep copy rooted at "root" *)
  counters : (string * int) list; (* sorted by name *)
  gauges : (string * float) list;
  dists : (string * dist) list;
}

let rec copy_span sp =
  let children = Hashtbl.create (Hashtbl.length sp.children) in
  Hashtbl.iter (fun name c -> Hashtbl.replace children name (copy_span c))
    sp.children;
  { name = sp.name;
    count = sp.count;
    total_s = sp.total_s;
    minor_words = sp.minor_words;
    major_words = sp.major_words;
    rev_order = sp.rev_order;
    children }

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot () =
  let sc = cur () in
  locked (fun () ->
      let spans = copy_span sc.root in
      (* the root has no own timing or GC activity; report both as the
         sum of its children *)
      List.iter
        (fun c ->
          spans.total_s <- spans.total_s +. c.total_s;
          spans.minor_words <- spans.minor_words +. c.minor_words;
          spans.major_words <- spans.major_words +. c.major_words)
        (children_in_order spans);
      { spans;
        counters = sorted_bindings sc.counters (fun r -> !r);
        gauges = sorted_bindings sc.gauges Fun.id;
        dists = sorted_bindings sc.dists copy_dist })
