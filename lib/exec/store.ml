(* Content-addressed artifact cache.

   Entry layout (all text header lines end in '\n', payload is raw
   Marshal bytes):

     APEXCACHE\n
     <format_version>\n
     <hex digest of payload>\n
     <payload length in bytes>\n
     <payload>

   The payload is a (value, counters to replay on a hit) pair.

   The entry *name* is already a digest of (format version, phase
   version tag, inputs) under its namespace's directory, so the header
   only needs to defend against torn writes, bit rot and stale formats
   — key collisions are content-addressing's problem and solved
   upstream. *)

module Counter = Apex_telemetry.Counter
module Guard = Apex_guard

(* salted with the build's digest of the lib/ sources (build_salt.ml,
   generated by lib/exec/dune): an entry another build wrote carries
   another salt, in its key and in its header, so it reads as stale
   instead of being unmarshalled as a type it may not have *)
let format_version = "apex.exec.store/2+" ^ Build_salt.digest

let magic = "APEXCACHE"

let default_dir () =
  match Sys.getenv_opt "APEX_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "apex"
      | _ -> Filename.concat (Filename.get_temp_dir_name ()) "apex-cache")

let dir_override = ref None

let cache_dir () =
  match !dir_override with Some d -> d | None -> default_dir ()

let set_dir d = dir_override := Some d

let on = ref true

let enabled () = !on

let set_enabled b = on := b

(* one marshal of the whole triple, without sharing: the bytes depend
   only on the inputs' content, never on how they were built, and no
   separator can be forged by an input *)
let key ~version inputs =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (format_version, version, inputs)
          [ Marshal.No_sharing ]))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Per-domain tenant prefix: a multi-tenant server scopes each
   request's artifacts as "<tenant>~<phase-ns>" so tenants share warm
   artifacts with themselves but never observe each other's.  '~' never
   appears in the phase namespaces ("analysis", "merge", ...), so the
   mangled name is unambiguous and stays one path segment — the
   [stats]/[gc] directory walk is unchanged.  Domain-local like the
   telemetry scope; [namespace]/[with_namespace] are the hand-off pair
   Exec.Pool uses to propagate it to workers. *)
let ns_key : string option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let namespace () = !(Domain.DLS.get ns_key)

let with_namespace tenant f =
  let r = Domain.DLS.get ns_key in
  let saved = !r in
  r := tenant;
  Fun.protect f ~finally:(fun () -> r := saved)

let effective_ns ns =
  match namespace () with None -> ns | Some t -> t ^ "~" ^ ns

(* namespace directories keep [gc]/[stats] walks trivial and let users
   nuke one phase's artifacts by hand without touching the rest *)
let entry_path ~ns ~key =
  Filename.concat (Filename.concat (cache_dir ()) (effective_ns ns)) key

let evict path = try Sys.remove path with Sys_error _ -> ()

type read_result = Hit of string | Miss | Corrupt | Stale

let read_entry path =
  if not (Sys.file_exists path) then Miss
  else
    match open_in_bin path with
    | exception Sys_error _ -> Miss
    | ic -> (
        let parse () =
          let line () = input_line ic in
          if line () <> magic then Corrupt
          else if line () <> format_version then Stale
          else begin
            let digest = line () in
            match int_of_string_opt (line ()) with
            | None -> Corrupt
            | Some len when len <> in_channel_length ic - pos_in ic ->
                (* a torn or doubled write, or a damaged length: checked
                   before the read, so no length sizes a buffer unless
                   the file holds exactly that many payload bytes *)
                Corrupt
            | Some len ->
                let payload = really_input_string ic len in
                if Digest.to_hex (Digest.string payload) <> digest then
                  Corrupt
                else Hit payload
          end
        in
        match Fun.protect parse ~finally:(fun () -> close_in_noerr ic) with
        | r -> r
        | exception (End_of_file | Sys_error _ | Failure _) -> Corrupt)

(* Publish-by-rename: the payload is written to a per-(pid, domain)
   temp name and only renamed onto the entry path after a *checked*
   close, so a crash — or a flush error such as ENOSPC — at any point
   leaves a torn temp file that [lookup] never reads, rather than a
   torn entry that only the digest check catches later. *)
let write_entry path payload =
  mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc magic;
     output_char oc '\n';
     output_string oc format_version;
     output_char oc '\n';
     output_string oc (Digest.to_hex (Digest.string payload));
     output_char oc '\n';
     output_string oc (string_of_int (String.length payload));
     output_char oc '\n';
     if Guard.Fault.fire "store-crash" then begin
       (* simulate dying mid-write: half the payload reaches the temp
          file and nothing cleans it up — the entry is never published
          and later runs recompute as if the write never happened *)
       output_string oc (String.sub payload 0 (String.length payload / 2));
       close_out_noerr oc;
       raise (Guard.Fault.Injected "store-crash")
     end;
     output_string oc payload;
     (* close before rename: buffered-write failures must surface while
        the data is still under the temp name *)
     close_out oc
   with e ->
     close_out_noerr oc;
     (match e with Guard.Fault.Injected _ -> () | _ -> evict tmp);
     raise e);
  Sys.rename tmp path;
  Counter.add "exec.cache_bytes_written" (String.length payload)

(* Caching is best-effort: a failed publish (disk trouble or the
   injected crash) must never fail the computation that produced the
   value — the caller already holds the result. *)
let store_payload ~ns ~key payload =
  match write_entry (entry_path ~ns ~key) payload with
  | () -> ()
  | exception (Sys_error _ | Unix.Unix_error _) -> ()
  | exception Guard.Fault.Injected site ->
      Guard.Outcome.record ~phase:"store"
        (Guard.Outcome.Degraded (Guard.Outcome.Fault site))

let store ~ns ~key v =
  if !on then store_payload ~ns ~key (Marshal.to_string (v, []) [])

let decode payload =
  (* the payload digest matched, but defend against a valid-looking
     entry written by an incompatible build: any unmarshalling failure
     degrades to a recompute *)
  match (Marshal.from_string payload 0 : 'a * (string * int) list) with
  | entry -> Some entry
  | exception _ -> None

(* Transient read failures (and the injected "store-read-transient"
   site) are retried with the default bounded backoff; exhaustion
   degrades to a miss — the caller recomputes, results identical. *)
let read_entry_retried path =
  let attempt () =
    if Guard.Fault.fire "store-read-transient" then
      raise (Sys_error "injected transient store read failure");
    read_entry path
  in
  let retryable = function
    | Sys_error _ | Unix.Unix_error _ -> true
    | _ -> false
  in
  match Guard.Retry.run ~label:"store_read" ~retryable attempt with
  | r -> r
  | exception (Sys_error _ | Unix.Unix_error _) ->
      Guard.Outcome.record ~phase:"cache"
        (Guard.Outcome.Degraded
           (Guard.Outcome.Fault "store-read-transient"));
      Miss

let lookup ~ns ~key =
  if not !on then None
  else
    let path = entry_path ~ns ~key in
    match read_entry_retried path with
    | Hit _ when Guard.Fault.fire "cache-corrupt" ->
        (* the armed hit is treated exactly like on-disk corruption:
           evict and recompute, results identical to a cold lookup *)
        Counter.incr "exec.cache_corrupt";
        Guard.Outcome.record ~phase:"cache"
          (Guard.Outcome.Degraded (Guard.Outcome.Fault "cache-corrupt"));
        evict path;
        None
    | Hit payload -> (
        match decode payload with
        | Some (v, counters) ->
            Counter.incr "exec.cache_hits";
            Counter.add "exec.cache_bytes_read" (String.length payload);
            List.iter (fun (k, n) -> Counter.add k n) counters;
            Some v
        | None ->
            Counter.incr "exec.cache_corrupt";
            evict path;
            None)
    | Miss -> None
    | Stale ->
        Counter.incr "exec.cache_stale";
        evict path;
        None
    | Corrupt ->
        Counter.incr "exec.cache_corrupt";
        evict path;
        None

(* what a hit replays: all [f] counted but solver work, store traffic
   and the run's circumstances *)
let replayed (k, _) =
  not
    (String.starts_with ~prefix:"smt." k
    || String.starts_with ~prefix:"exec." k
    || Guard.Outcome.circumstance k)

let memoize ~ns ~key f =
  if not !on then f ()
  else
    match lookup ~ns ~key with
    | Some v -> v
    | None ->
        Counter.incr "exec.cache_misses";
        let v, counters = Counter.tally f in
        (* a degraded outcome under [f], an inner memo's included, is a
           circumstance of this run: returned, never stored *)
        if Guard.Outcome.exact_counters counters then
          store_payload ~ns ~key
            (Marshal.to_string (v, List.filter replayed counters) []);
        v

(* --- maintenance: stats and gc --- *)

type ns_stats = { ns : string; entries : int; bytes : int }

let is_tmp_name name =
  (* writer temp names are "<key>.tmp.<pid>.<domain>" *)
  let sub = ".tmp." in
  let n = String.length name and m = String.length sub in
  let rec go i = i + m <= n && (String.sub name i m = sub || go (i + 1)) in
  go 0

(* corrupt entries are moved (not deleted) here by [scrub]; the subtree
   is invisible to the entry walk so stats/gc never touch evidence *)
let quarantine_dirname = "quarantine"

(* The one namespace walk: every regular file under a namespace
   directory (the quarantine subtree excluded) whose name passes
   [keep], in sorted order, with its size and mtime. *)
let walk keep =
  let root = cache_dir () in
  if not (Sys.file_exists root && Sys.is_directory root) then []
  else
    Sys.readdir root |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun ns ->
           let d = Filename.concat root ns in
           if ns = quarantine_dirname || not (Sys.is_directory d) then []
           else
             Sys.readdir d |> Array.to_list |> List.sort String.compare
             |> List.filter_map (fun name ->
                    if not (keep name) then None
                    else
                      let path = Filename.concat d name in
                      match Unix.stat path with
                      | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                          Some (ns, path, st_size, st_mtime)
                      | _ -> None
                      | exception Unix.Unix_error _ -> None))

(* orphaned temp files from crashed writers are not entries and must
   not count *)
let entry_files () = walk (fun name -> not (is_tmp_name name))

let stats () =
  let tbl : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (ns, _, size, _) ->
      let entries, bytes =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tbl ns)
      in
      Hashtbl.replace tbl ns (entries + 1, bytes + size))
    (entry_files ());
  Hashtbl.fold (fun ns (entries, bytes) acc -> { ns; entries; bytes } :: acc)
    tbl []
  |> List.sort (fun a b -> String.compare a.ns b.ns)

(* Whether this build can read the entry: its header names this
   build's format version.  Only the header is read, not the payload,
   so the check costs one short read per entry. *)
let is_current path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | m -> m = magic && input_line ic = format_version
          | exception End_of_file -> false)

(* Other builds' entries go first (no lookup of this build can ever hit
   them), then this build's oldest: sort current-first, newest first
   within each group, keep while the running total fits the budget,
   delete the tail *)
let gc_filtered ~budget_bytes keep_ns =
  let files =
    List.filter (fun (ns, _, _, _) -> keep_ns ns) (entry_files ())
    |> List.map (fun ((_, path, _, _) as e) -> (is_current path, e))
    |> List.sort (fun (ca, (_, _, _, ma)) (cb, (_, _, _, mb)) ->
           compare (cb, mb) (ca, ma))
    |> List.map snd
  in
  let _, deleted, freed =
    List.fold_left
      (fun (kept_bytes, deleted, freed) (_, path, size, _) ->
        if kept_bytes + size <= budget_bytes then
          (kept_bytes + size, deleted, freed)
        else begin
          evict path;
          (kept_bytes, deleted + 1, freed + size)
        end)
      (0, 0, 0) files
  in
  (deleted, freed)

(* Writer temp files are normally renamed away or evicted by their
   writer; one orphaned by a crash (kill -9 mid-publish) would sit
   forever — [entry_files] skips them, so neither gc nor stats ever
   saw them.  Reap any older than an hour: old enough that no live
   writer can still own them. *)
let default_tmp_max_age_s = 3600.0

let reap_tmp ?(max_age_s = default_tmp_max_age_s) () =
  let now = Unix.gettimeofday () in
  List.fold_left
    (fun reaped (_, path, _, mtime) ->
      if now -. mtime > max_age_s then begin
        evict path;
        reaped + 1
      end
      else reaped)
    0 (walk is_tmp_name)

let gc ?(budget_bytes = 0) () =
  let reaped = reap_tmp () in
  if reaped > 0 then Counter.add "exec.cache_tmp_reaped" reaped;
  gc_filtered ~budget_bytes (fun _ -> true)

let gc_ns ~ns ?(budget_bytes = 0) () =
  gc_filtered ~budget_bytes (String.equal ns)

(* tenant quota: one budget across every "<tenant>~*" namespace, so a
   tenant hammering one phase evicts its own oldest artifacts first and
   cannot grow past its byte quota no matter how its traffic is mixed *)
let gc_prefix ~prefix ?(budget_bytes = 0) () =
  gc_filtered ~budget_bytes (String.starts_with ~prefix)

(* --- scrub: integrity audit with quarantine --- *)

type scrub_stats = {
  scrub_ns : string;
  checked : int;
  ok : int;
  corrupt : int;
  stale : int;
  quarantined_bytes : int;
}

(* Re-verify every entry's digest.  A corrupt entry is *quarantined* —
   moved under <cache>/quarantine/<ns>/ — never silently deleted: bit
   rot and torn writes are evidence worth keeping, and a quarantined
   path can be inspected or diffed against a recomputed entry.  Stale
   entries (another build's format version) are counted but left in
   place: no lookup of this build reads them, and [gc] deletes them
   before any of this build's entries. *)
let scrub ?ns () =
  let keep = match ns with None -> fun _ -> true | Some n -> String.equal n in
  let tbl : (string, scrub_stats) Hashtbl.t = Hashtbl.create 8 in
  let get nsname =
    Option.value
      ~default:
        { scrub_ns = nsname; checked = 0; ok = 0; corrupt = 0; stale = 0;
          quarantined_bytes = 0 }
      (Hashtbl.find_opt tbl nsname)
  in
  List.iter
    (fun (nsname, path, size, _) ->
      if keep nsname then begin
        let s = get nsname in
        let s = { s with checked = s.checked + 1 } in
        let s =
          match read_entry path with
          | Hit _ -> { s with ok = s.ok + 1 }
          | Miss -> s (* raced with an eviction; nothing to judge *)
          | Stale -> { s with stale = s.stale + 1 }
          | Corrupt ->
              let qdir =
                Filename.concat
                  (Filename.concat (cache_dir ()) quarantine_dirname)
                  nsname
              in
              mkdir_p qdir;
              let qpath = Filename.concat qdir (Filename.basename path) in
              (match Sys.rename path qpath with
              | () -> Counter.incr "exec.cache_quarantined"
              | exception Sys_error _ ->
                  (* cannot move it (permissions?): leave it in place —
                     scrub reports it either way *)
                  ());
              { s with corrupt = s.corrupt + 1;
                quarantined_bytes = s.quarantined_bytes + size }
        in
        Hashtbl.replace tbl nsname s
      end)
    (entry_files ());
  Hashtbl.fold (fun _ s acc -> s :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.scrub_ns b.scrub_ns)
