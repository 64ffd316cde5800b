(* A generic monotone-dataflow engine over [Dfg.Graph].

   Node ids are topologically ordered: every argument id is smaller
   than the id of the node using it, so a [Graph.t] has no back-edges
   ([Reg]/[Reg_file] cross a cycle boundary in the hardware, not in the
   graph, and their transfers are constant).  One sweep in direction
   order therefore visits each node after every fact its transfer
   reads: ids ascending for a forward problem (arguments first),
   descending for a backward one (users first).  Each fact is final
   when computed, so the sweep is the fixpoint.

   Facts live in a dense [fact array] indexed by node id — the graphs
   are small (tens to a few hundred nodes) and every client wants
   random access by id afterwards. *)

module G = Apex_dfg.Graph

type direction = Forward | Backward

module type PROBLEM = sig
  type fact

  val direction : direction

  val init : G.t -> G.node -> fact

  val transfer :
    G.t -> succs:int list array -> G.node -> (int -> fact) -> fact
end

module Make (P : PROBLEM) = struct
  let solve (g : G.t) =
    let n = G.length g in
    let nodes = G.nodes g in
    let succs = G.succs g in
    let facts = Array.init n (fun i -> P.init g nodes.(i)) in
    let visit i =
      Apex_guard.tick ();
      facts.(i) <- P.transfer g ~succs nodes.(i) (fun j -> facts.(j))
    in
    (match P.direction with
    | Forward -> for i = 0 to n - 1 do visit i done
    | Backward -> for i = n - 1 downto 0 do visit i done);
    Apex_telemetry.Counter.add "analysis.dataflow.visits" n;
    facts
end
