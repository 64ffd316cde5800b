(** Committed benchmark-trajectory snapshots and their regression gate.

    A snapshot is one phase benchmark (mining, merging, SMT rule
    synthesis, or the end-to-end DSE evaluation) reduced to what is
    stable enough to commit: the phase's *exact* search-space counters
    (bit-identical across runs, machines and [--jobs] settings — the
    pool's determinism contract) plus its wall clock coarsened into
    geometric ratio bands (stable across machines of similar speed;
    [diff] tolerates configurable band drift).  [bench --snapshot]
    writes one [BENCH_<area>.json] per area; [apex bench-diff] compares
    two such files and is the [make ci] regression gate. *)

type area = Mining | Merging | Smt | Configspace | Dse

val areas : (string * area) list
(** Every area with its file/report name, in canonical run order. *)

val area_name : area -> string

type t = {
  area : string;
  counters : (string * int) list;  (** sorted; exact; excludes exec.* *)
  seconds : float;  (** raw wall clock of the measured phase *)
  extra_bands : (string * float) list;
      (** additional named timings (e.g. latency percentiles), banded
          like [seconds] and gated by [diff] under their own names *)
  info : (string * Apex_telemetry.Json.t) list;
      (** ungated extras (raw milliseconds, ratios) written into an
          ["info"] object that [diff] never reads *)
}

val schema_version : string

val band_unit_ms : float

val band_ratio : float

val band_of_seconds : float -> int
(** Geometric time band: 0 for anything at or under [band_unit_ms],
    then the nearest integer power of [band_ratio] above it.  Two
    timings in the same band are within a factor of [sqrt band_ratio]
    of the band center. *)

val run : area -> t
(** Build the area's inputs (outside the measured window, so in-memory
    memo caches warmed by earlier areas cannot skew the counters),
    disable the artifact store, reset the telemetry registry, run the
    phase, and capture its counters and wall clock.  Deterministic:
    two consecutive runs in the same or separate processes, at any
    [--jobs] width, produce identical counter sections. *)

val to_json : t -> Apex_telemetry.Json.t

val write : dir:string -> t -> string
(** Write [to_json] to [dir/BENCH_<area>.json]; returns the path. *)

val diff :
  ?tolerance:int -> Apex_telemetry.Json.t -> Apex_telemetry.Json.t ->
  string list
(** [diff old new] returns human-readable regression findings, empty
    when the snapshots agree: every exact counter must match in both
    directions (a missing or extra counter is drift too), and each
    time band may move by at most [tolerance] bands (default 1). *)
