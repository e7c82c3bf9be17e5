(** Job specifications for the verification service.

    A spec is a small key=value document (one pair per line, [#] comments
    allowed) describing one verification job: which protocol to put under
    which kind of scrutiny (exhaustive check, differential fuzz, or
    randomized hunt), at what size, with what budgets. The same record is
    built programmatically by the sweep engine ({!Sweep.expand}) — the
    textual form exists so jobs can be dropped into a daemon's spool
    directory ({!Daemon}) from anywhere.

    {!ident} renders the result-relevant fields canonically; two specs
    with equal idents describe the same experiment and may share a cached
    verdict. Scheduling knobs (priority) are deliberately excluded. *)

type kind = Check | Fuzz | Hunt
type proto = Mutex | Cmp_mutex | Consensus | Election | Renaming | Ccp
type engine =
  | Seq  (** the sequential explorer *)
  | Par  (** the frontier-parallel explorer; rendered ["sharded"] *)

type t = {
  kind : kind;
  proto : proto;
  n : int;  (** processes (default 2) *)
  m : int;  (** registers (default: per-protocol, as [coordctl check]) *)
  reduction : Check.Explore.reduction;
  engine : engine;  (** check jobs: which explorer runs the config *)
  max_states : int option;  (** per-configuration state budget *)
  deadline_s : float option;  (** whole-job wall-clock budget *)
  priority : int;  (** higher runs first (default 0); not part of {!ident} *)
  attempts : int option;  (** fuzz / hunt attempt count *)
  seed : int;  (** fuzz / hunt seed (default 1) *)
  steps : int;  (** hunt steps per attempt (default 2000) *)
  strategy : Check.Hunt.strategy;  (** hunt schedule strategy *)
}

val default_m : proto -> n:int -> int
(** The [coordctl check] default register count: mutex 3, cmp-mutex 2,
    consensus / election / renaming [2n-1], ccp 2. *)

val make :
  ?n:int ->
  ?m:int ->
  ?reduction:Check.Explore.reduction ->
  ?engine:engine ->
  ?max_states:int ->
  ?deadline_s:float ->
  ?priority:int ->
  ?attempts:int ->
  ?seed:int ->
  ?steps:int ->
  ?strategy:Check.Hunt.strategy ->
  kind ->
  proto ->
  t

val kind_to_string : kind -> string
val proto_to_string : proto -> string
val proto_of_string : string -> (proto, string) result
val engine_to_string : engine -> string
val engine_of_string : string -> (engine, string) result

val ident : t -> string
(** Canonical one-line identity over every result-affecting field
    (everything except [priority]). Used for sweep-cell deduplication and
    as the fuzz/hunt cache key preimage. *)

val to_line : t -> string
(** [ident] plus the scheduling fields — a parseable round-trip form. *)

val parse : string -> (t, string) result
(** Parse a key=value document (or single line). Recognized keys: [kind],
    [proto], [n], [m], [reduction], [engine], [max_states], [deadline],
    [priority], [attempts], [seed], [steps], [strategy]. [kind] and
    [proto] are required; anything unknown is an error. *)

val kv_of_string : string -> ((string * string) list, string) result
(** The underlying tokenizer: split lines, drop blanks and [#] comments,
    parse [key = value] pairs (value may contain spaces). Exposed for the
    sweep-spec parser, which shares the format. *)
