(** Frequent subgraph mining on a single application dataflow graph.

    This replaces GRAMI [13] in the APEX flow: it enumerates every
    connected induced subgraph of the compute portion of the graph up to
    a size bound (ESU enumeration, each node set visited exactly once),
    and reports the patterns whose occurrence count reaches the support
    threshold.  Each occurrence gets an integer shape key (op codes,
    in-embedding argument positions, external inputs by first use with
    their widths); one lookup on it yields the canonical pattern and its
    group, and only a new key is canonicalized with {!Pattern}, so
    canonicalization runs once per distinct shape.  A pattern's
    representative graph comes from the last occurrence visited. *)

type config = {
  min_support : int;   (** minimum number of occurrences (paper: the
                           GRAMI frequency threshold) *)
  max_size : int;      (** maximum internal nodes per pattern *)
}
(** Constants are always mined into patterns (kernel weights become
    constant registers, Fig. 2c), and constant values and LUT tables
    are wildcards, so e.g. all multiply-by-weight subgraphs aggregate
    into one pattern whose constant becomes a configurable register.
    Enumeration stops after 2M connected subgraphs (see
    [stats.truncated]). *)

val default_config : config
(** [min_support = 2], [max_size = 5]. *)

type found = {
  pattern : Pattern.t;
  embeddings : int list list;
  (** sorted node-id sets, one per occurrence (capped, see {!stats}) *)
  support : int;  (** exact occurrence count *)
}

type stats = {
  enumerated : int;   (** connected subgraphs visited *)
  truncated : bool;   (** enumeration budget or deadline exhausted *)
  capped_patterns : int;
  (** patterns whose stored embedding list hit the per-pattern cap
      (4000); their [support] stays exact but MIS runs on the cap *)
  outcome : Apex_guard.Outcome.t;
  (** [Exact], or [Degraded] when the subgraph cap ([Fuel]) or the
      ambient {!Apex_guard} budget ([Deadline]) cut enumeration short —
      the returned census covers everything enumerated up to the cut *)
}

val mine : config -> Apex_dfg.Graph.t -> found list * stats
(** Frequent patterns sorted by decreasing support, then decreasing
    size, then canonical code. *)
