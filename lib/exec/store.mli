(** Content-addressed on-disk artifact cache.

    Phase results — mined pattern sets, merged datapaths, synthesized
    rule sets, pipeline plans — are memoized under a digest of their
    inputs' content, the phase configuration, and the cache
    format/code version.  Entries live under [APEX_CACHE_DIR] (default
    [~/.cache/apex]), one file per artifact, written atomically
    (temp + rename) so an interrupted sweep leaves only complete
    entries and resumes from them.

    Robustness contract: a truncated, corrupted or version-mismatched
    entry is *never* an error — it is detected (length + digest +
    version header), counted ([exec.cache_corrupt] /
    [exec.cache_stale]), evicted, and transparently recomputed. *)

val format_version : string
(** Container format tag; changing it invalidates every entry.  It is
    salted with a digest of the library sources made at build time, so
    each build reads only the entries it wrote itself or that a build of
    the same sources wrote: an entry from another build, even under the
    same key, reads as stale ([exec.cache_stale]) and is recomputed,
    never unmarshalled as a type it may not have. *)

val cache_dir : unit -> string
(** Resolved cache root: [APEX_CACHE_DIR], else [$HOME/.cache/apex],
    else a directory under the system temp dir. *)

val set_dir : string -> unit
(** Override the cache root (tests, bench sweeps). *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** [set_enabled false] (the CLI's [--no-cache]) makes [memoize] always
    recompute and never touch the disk. *)

val namespace : unit -> string option
(** The calling domain's tenant namespace prefix, if any. *)

val with_namespace : string option -> (unit -> 'a) -> 'a
(** [with_namespace (Some tenant) f] runs [f] with every store access
    scoped to namespaces ["<tenant>~<ns>"]: tenants share warm
    artifacts with their own earlier requests but never observe each
    other's entries.  [with_namespace None f] restores the unscoped
    default (and is how Exec.Pool hands a submitter's scope — possibly
    absent — to its workers).  Domain-local; restored on exit. *)

val key : version:string -> 'a -> string
(** [key ~version inputs] digests the format version, the phase's
    [version] tag (bump it when the cached type or the producing
    algorithm changes) and [inputs] into an entry name.  [inputs] is
    marshalled without sharing, so the key depends only on its content:
    structurally equal inputs give equal keys however they were built.
    Precondition: [inputs] holds no closure (marshalling raises) and no
    cycle (marshalling without sharing does not terminate). *)

val memoize : ns:string -> key:string -> (unit -> 'a) -> 'a
(** [memoize ~ns ~key f] returns the cached value for [key] in
    namespace [ns], or computes [f ()] under [Counter.tally] and
    returns it.  The value is stored only when the tally (inner memos'
    included) holds no [guard.outcome.degraded] or
    [guard.outcome.skipped]: a degraded result is never served to a
    later run.  With it the entry keeps every counter [f] added except
    [smt.*] (solver work), [exec.*] (store traffic) and [guard.*] other
    than [guard.outcome.exact] (the run's circumstances); a hit replays
    them, so warm and cold runs report the same phase counters.
    Unmarshalling is type-safe because the key embeds the build salt
    of {!format_version}, and the phase version tag, which keeps the
    phases' types apart within one build. *)

val lookup : ns:string -> key:string -> 'a option
(** Cache probe without compute; [None] on miss/corrupt/disabled.  A
    hit replays the counters stored with the entry. *)

val exists : ns:string -> key:string -> bool
(** Whether a regular file stands at [key]'s entry path ([false] when
    disabled): one [stat], no read, no counter.  A directory is not an
    entry.  The file may still read as corrupt or stale, so [true] only
    says that [memoize] will most likely hit. *)

val store : ns:string -> key:string -> 'a -> unit
(** Unconditional write (no-op when disabled), with no counters to
    replay; errors are swallowed — a failed cache write must never
    change a run's outcome. *)

type ns_stats = { ns : string; entries : int; bytes : int }

val stats : unit -> ns_stats list
(** Per-namespace entry counts and byte totals, sorted by namespace. *)

val gc : ?budget_bytes:int -> unit -> int * int
(** [gc ~budget_bytes ()] deletes entries until the cache fits the
    budget (default 0 = delete everything); returns (entries deleted,
    bytes freed).  Entries whose header names another build's
    {!format_version} go first, then this build's oldest (by mtime).  Also reaps writer temp files
    ([*.tmp.<pid>.<domain>]) orphaned by a crashed writer, once they
    are over an hour old (counted as [exec.cache_tmp_reaped]). *)

val gc_ns : ns:string -> ?budget_bytes:int -> unit -> int * int
(** Like [gc] but confined to one namespace directory: evicts that
    namespace's entries, other builds' first, until it fits the
    budget.  Other
    namespaces are never touched. *)

val gc_prefix : prefix:string -> ?budget_bytes:int -> unit -> int * int
(** Like [gc] but over every namespace whose name starts with
    [prefix] — one byte quota across all of a tenant's
    ["<tenant>~*"] namespaces. *)

type scrub_stats = {
  scrub_ns : string;
  checked : int;
  ok : int;  (** digest verified *)
  corrupt : int;  (** quarantined (or unremovable-in-place) *)
  stale : int;
      (** another build's format version; left in place, and deleted by
          [gc] before any current entry *)
  quarantined_bytes : int;
}

val scrub : ?ns:string -> unit -> scrub_stats list
(** Integrity audit: re-verify every entry's header and payload digest
    (optionally restricted to one namespace directory).  Corrupt
    entries are moved — never silently deleted — into
    [<cache>/quarantine/<ns>/], a subtree invisible to [stats]/[gc]/
    lookups, so torn writes and bit rot stay inspectable.  Returns
    per-namespace counts sorted by namespace. *)
