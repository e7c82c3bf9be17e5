(** Verdict cache: fingerprint-keyed memoization of completed runs.

    Entries are keyed by the 16-byte MD5 config fingerprint
    ({!Check.Explore.Make.fingerprint} for check configurations,
    [Digest.string] of the canonical spec ident for fuzz/hunt jobs), so a
    repeat query costs one hash lookup instead of a re-exploration.

    Soundness: the fingerprint is a hash, not an injection, so every
    entry also carries the full injective identity string
    ({!Check.Explore.Make.describe} / {!Spec.ident}) and a lookup only
    hits when the stored identity matches byte-for-byte. A digest
    collision between distinct configurations is therefore {e detected}
    and counted ({!collisions}) — it degrades to a miss, never to a wrong
    verdict. Only {e complete} explorations may be cached: the
    fingerprint deliberately excludes the state budget, so a truncated
    verdict cached under it would poison later queries with bigger
    budgets.

    All operations are mutex-guarded — safe to share across the worker
    pool's domains. *)

type entry = {
  ident : string;  (** full injective identity, verified on lookup *)
  verdict : string;  (** {!Runner.verdict_tag} of the cached result *)
  exit_code : int;
  detail : string;
  n_states : int;  (** graph size of the cached exploration (0 for fuzz/hunt) *)
  stats : Check.Checker_stats.t option;
      (** per-config stats, replayed into cached outcomes so a cache-served
          job reports the same stats (mod clock) as the original run *)
}

type t

val create : unit -> t

val find : t -> key:Digest.t -> ident:string -> entry option
(** Lookup; counts a hit, a miss, or a collision (key present but no
    entry's [ident] matches — returned as a miss). *)

val add : t -> key:Digest.t -> entry -> unit
(** Insert (replacing any previous entry with the same key and ident). *)

val length : t -> int
val hits : t -> int
val misses : t -> int
val collisions : t -> int

val save : t -> path:string -> unit
(** Persist the entries durably with {!Check.Snapshot.write}: a CRC'd,
    versioned envelope whose fingerprint names the cache layout. Raises
    {!Check.Snapshot.Error} on an I/O failure. *)

val load : path:string -> t
(** Load a cache persisted by {!save}. A missing file yields an empty
    cache. So does a file that fails {!Check.Snapshot.read} (damaged,
    not a snapshot) or carries another cache layout's fingerprint (an
    older build's file): the file is discarded with one line on stderr
    naming it and the reason, since persistence is an optimization,
    never a failure mode. *)
