let first_fit embeddings =
  (* greedy maximal independent set without materializing the overlap
     graph: scan embeddings in order, keep those disjoint from every
     kept one.  Linear in the total embedding size, which matters for
     patterns with thousands of overlapping occurrences. *)
  let used = Hashtbl.create 256 in
  let chosen = ref [] in
  List.iteri
    (fun i emb ->
      if List.for_all (fun v -> not (Hashtbl.mem used v)) emb then begin
        List.iter (fun v -> Hashtbl.replace used v ()) emb;
        chosen := i :: !chosen
      end)
    embeddings;
  List.rev !chosen

let mis_size embeddings =
  Apex_telemetry.Counter.incr "mining.mis_computed";
  List.length (first_fit embeddings)
