(** Committed benchmark-trajectory snapshots and their regression gate.

    A snapshot is one phase benchmark (mining, merging, SMT rule
    synthesis, configuration-space analysis, or the end-to-end DSE
    evaluation) reduced to what is stable enough to commit: the phase's
    *exact* search-space counters (bit-identical across runs, machines
    and [--jobs] settings — the pool's determinism contract) plus the
    minor words each of its layers (span names) allocated itself.  Wall
    clock is not recorded: the flow benchmark (perfbench) gates time.
    [bench --snapshot] writes one [BENCH_<area>.json] per area; [apex
    bench-diff] compares two such files and is the [make ci] regression
    gate. *)

type area = Mining | Merging | Smt | Configspace | Dse

val areas : (string * area) list
(** Every area with its file/report name, in canonical run order. *)

val area_name : area -> string

type t = {
  area : string;
  counters : (string * int) list;  (** sorted; exact; excludes exec.* *)
  alloc_kw : (string * int) list;
      (** sorted by span name: the self minor words (a span's words
          minus its children's) of every span in the measured phase,
          in kilowords.  Reproducible across processes under
          [APEX_JOBS=1]; at larger widths a memo is paid for by
          whichever domain fills it first. *)
}

val schema_version : string

val run : area -> t
(** Build the area's inputs (outside the measured window, so in-memory
    memo caches warmed by earlier areas cannot skew the counters),
    disable the artifact store, reset the telemetry registry, run the
    phase, and capture its counters and per-layer allocation.
    Deterministic: two consecutive runs in the same or separate
    processes, at any [--jobs] width, produce identical counter
    sections. *)

val to_json : t -> Apex_telemetry.Json.t

val write : dir:string -> t -> string
(** Write [to_json] to [dir/BENCH_<area>.json]; returns the path. *)

val diff : Apex_telemetry.Json.t -> Apex_telemetry.Json.t -> string list
(** [diff old new] returns human-readable regression findings, empty
    when the snapshots agree: every exact counter must match, and each
    layer's [alloc_kw] may move by at most the larger of 10% and 64 kw
    of the old value.  Both sections are checked in both directions (a
    missing or extra key is drift too). *)
