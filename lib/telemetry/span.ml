(* Hierarchical wall-clock spans.  [with_ "mining" f] times [f] and
   accounts it to the span "mining" nested under whatever span is
   currently open, together with the words the body allocated.  Words
   come from [Gc.counters], which counts the running domain only: a
   span is charged its own domain's allocation, never that of another
   domain running at the same time (work handed to pool runners is
   charged to the runners' spans).  When the registry is disabled this
   is a single branch and a tail call — no allocation, no clock read,
   no GC read.  When per-occurrence event collection is on
   (Registry.set_events, the Chrome trace feed), each completed span
   additionally records one timeline event tagged with the running
   domain's id. *)

let with_ name f =
  if not (Registry.is_enabled ()) then f ()
  else begin
    let sp = Registry.enter name in
    let minor0, _, major0 = Gc.counters () in
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        let minor1, _, major1 = Gc.counters () in
        Registry.leave sp ~dt:(t1 -. t0) ~minor:(minor1 -. minor0)
          ~major:(major1 -. major0);
        if Registry.events_enabled () then Registry.record_event name ~t0 ~t1)
  end
