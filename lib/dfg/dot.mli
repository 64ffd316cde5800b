(** Graphviz export of dataflow graphs, for inspecting mined subgraphs
    and merged datapaths. *)

val escape : string -> string
(** Escape a label for inclusion in a double-quoted DOT string.  Shared
    by every DOT emitter in the tree. *)

val to_string : ?name:string -> ?highlight:int list -> Graph.t -> string
(** DOT source.  Nodes in [highlight] are filled. *)
