(* Chrome trace-event (catapult JSON) exporter.

   Serializes the per-occurrence span events collected while
   Registry.set_events was on into the trace-event format that
   about://tracing and Perfetto load directly.  Every span becomes one
   complete ("X") event: timestamps and durations are microseconds
   relative to the registry epoch, the process id is constant, and the
   thread id is the OCaml domain that recorded the span — so a
   `--jobs 4` run renders as parallel timeline rows, one per worker
   domain, with nesting recovered from time containment per row.  A
   thread_name metadata record labels each row with its domain id. *)

let event_json (e : Registry.event) =
  Json.Obj
    [ ("name", Json.String e.ev_name);
      ("cat", Json.String "apex");
      ("ph", Json.String "X");
      ("ts", Json.Float e.ts_us);
      ("dur", Json.Float e.dur_us);
      ("pid", Json.Int 1);
      ("tid", Json.Int e.tid) ]

let thread_meta tid =
  Json.Obj
    [ ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args",
       Json.Obj
         [ ("name",
            Json.String
              (if tid = 0 then "domain 0 (main)"
               else Printf.sprintf "domain %d" tid)) ]) ]

let to_json events =
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Registry.tid) events)
  in
  Json.Obj
    [ ("traceEvents",
       Json.List (List.map thread_meta tids @ List.map event_json events));
      ("displayTimeUnit", Json.String "ms") ]

let write_file path events = Json.write_file path (to_json events)
