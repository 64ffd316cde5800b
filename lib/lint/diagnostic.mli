(** Lint diagnostics: stable check codes, severities and locations.

    Every invariant the flow relies on has a stable [APX0xx] code (see
    {!catalog}), so seeded-defect tests, CI greps and downstream tooling
    can match on codes rather than message text.  A diagnostic pins the
    violation to an IR location (node, edge, configuration, rule or
    mapped instance) and renders as one text line or one JSON object. *)

type severity = Note | Warning | Error

type loc =
  | No_loc
  | Node of int                               (** graph / datapath node id *)
  | Edge of { src : int; dst : int; port : int }
  | Config of string                          (** datapath config label *)
  | Rule of string                            (** rewrite-rule label *)
  | Instance of int                           (** mapped PE instance id *)

type t = {
  code : string;      (** stable "APXnnn" identifier *)
  severity : severity;
  loc : loc;
  message : string;
}

val make : ?loc:loc -> severity -> code:string -> string -> t

val notef :
  ?loc:loc -> code:string -> ('a, unit, string, t) format4 -> 'a

val warnf :
  ?loc:loc -> code:string -> ('a, unit, string, t) format4 -> 'a

val errorf :
  ?loc:loc -> code:string -> ('a, unit, string, t) format4 -> 'a

val severity_string : severity -> string
(** ["note"], ["warning"] or ["error"]. *)

val compare : t -> t -> int
(** Most severe first, then by code, then by location. *)

val pp : Format.formatter -> t -> unit
(** One line: [error[APX023] config add$c0: routes a missing edge ...]. *)

val to_json : t -> Apex_telemetry.Json.t

(** One row of the invariant catalog (the table in DESIGN.md). *)
type info = {
  code_info : string;
  layer : string;        (** owning IR / phase: "dfg", "datapath", ... *)
  default_severity : severity;
  invariant : string;    (** the invariant the code protects *)
}

val catalog : info list
(** Every code the built-in checkers can emit, sorted by code. *)
