(** Explicit-state exploration: the reachable global-state graph of a
    protocol instance.

    A global state is the physical register contents plus every process's
    local state. Nondeterminism is exactly the adversary's choice of which
    process steps next (plus both outcomes of any coin flip), so the
    reachable graph contains every run of the instance; checking a property
    on the graph checks it for {e all} schedules, including never starting
    some processes (participation is not required). *)

open Anonmem

type reduction =
  | Full  (** every reachable state, no quotient *)
  | Canon
      (** explore the symmetry quotient: states are canonicalized to the
          lex-least element of their orbit under the configuration's
          automorphism group ({!Canon.Make.group}) before interning. Sound
          for every protocol — asymmetric protocols get the identity group
          and the quotient degenerates to the full graph — and all
          graph-based property verdicts coincide with the full graph's
          (DESIGN.md §9; cross-checked by the test suite). *)

val reduction_tag : reduction -> string
(** ["full"] / ["canon"], as rendered by fingerprints and the CLI. *)

module Make (P : Protocol.PROTOCOL) : sig
  type config = {
    ids : int array;
    inputs : P.input array;
    namings : Naming.t array;
  }

  val config :
    ?m:int -> ids:int list -> inputs:P.input list -> unit -> config
  (** Identity namings of [m] registers (default [P.default_registers]). *)

  type state = { mem : P.Value.t array; locals : P.local array }

  type label = { proc : int; enters_cs : bool }

  type transition = { dst : int; label : label }

  type graph = {
    cfg : config;
    states : state array;  (** index 0 is the initial state *)
    orbits : int array;
        (** orbits.(i): number of full-graph states state [i] stands for;
            all 1 under [Full] reduction or a trivial group *)
    succs : transition list array;
    complete : bool;  (** false when [max_states] truncated the search *)
  }

  val initial : config -> state

  val statuses : state -> P.output Protocol.status array

  val successors : config -> state -> (label * state) list
  (** All one-step extensions (every non-decided process; both coin
      outcomes). *)

  val fingerprint : reduction:reduction -> config -> Digest.t * string
  (** Configuration fingerprint for durable snapshots: an MD5 digest over
      the protocol name, ids, inputs, namings and reduction, plus a
      human-readable description ("protocol=… n=… m=… reduction=…").
      Budget and parallelism knobs ([max_states], [domains],
      [par_threshold], snapshot cadence) are deliberately {e not} part of
      the fingerprint — they don't change the graph being explored, so a
      snapshot may be resumed with a bigger budget or different domain
      count. *)

  val describe : reduction:reduction -> config -> string
  (** Full textual identity of a configuration: protocol name, ids,
      inputs (via [P.pp_input]), namings and reduction, rendered
      injectively. Unlike the [descr] half of {!fingerprint} — which
      only records [n] and [m] — two distinct configurations always get
      distinct descriptions, so a result cache keyed by the (digest)
      fingerprint can store this string alongside each entry and verify
      it on lookup, turning a (vanishingly unlikely but possible) MD5
      collision into a detected cache miss instead of a wrong verdict. *)

  val canon_degraded : n:int -> bool
  (** [true] when [~reduction:Canon] would degrade to the identity group
      for an [n]-process configuration (the protocol declares
      [symmetric = false], or [n] exceeds {!Canon.Make.max_procs}) — the
      quotient silently coincides with the full graph. Surfaced in
      {!Checker_stats.t.degraded} and by [coordctl]'s [--canon] notice. *)

  val explore : ?max_states:int -> ?reduction:reduction -> config -> graph
  (** Breadth-first reachability from {!initial} (default reduction
      {!Full}; default budget 2,000,000 states). States are interned by
      their packed {!Codec} key. This is the sequential reference
      explorer, a plain FIFO loop that shares no code with the generation
      driver behind {!explore_with_stats} and {!explore_external}; every
      engine is cross-validated against it. *)

  val explore_with_stats :
    ?max_states:int ->
    ?domains:int ->
    ?par_threshold:int ->
    ?reduction:reduction ->
    ?snapshot_every:int ->
    ?snapshot_to:string ->
    ?resume_from:string ->
    ?deadline_s:float ->
    ?salvage:bool ->
    config ->
    graph * Checker_stats.t
  (** {!explore}'s graph — bit-identical state numbering, transition
      lists and [complete] flag, for every input and budget — with
      observability: per-depth frontier profile, throughput, dedup
      hit-rate, reduction factor.

      Parallelism: [domains] (default 1; an explicit count is honored as
      given, even beyond the host's — pass
      [Domain.recommended_domain_count ()] for the host's). Generations
      whose frontier is narrower than [par_threshold] (default
      [1024 * (domains - 1)]) run inline on the calling domain; no domain
      is spawned until the frontier first reaches the threshold (that
      depth is reported as [cutover] in the stats; [None] means the whole
      run stayed inline). The explorer works in code space: a state is
      keyed by the word its interned codes pack into (by its {!Codec}
      string when they do not fit), a successor's key is derived from its
      parent's through a per-domain memo of each process's step, and a
      structural state is built only for a new key. In a wide generation
      the calling domain expands and interns the frontier in order, as
      inline, one chunk at a time, and every domain builds the interned
      chunks' transition lists and new states (DESIGN.md §13), so the ids
      are the sequential ids by construction and only the calling domain
      touches the visited set.

      Supervision is built in (DESIGN.md §12): building a chunk is pure,
      so the calling domain builds again any chunk whose worker died or
      has held it past a fixed patience, and respawns a dead worker (a
      bounded number of times, counted in {!Checker_stats.t.restarts}) at
      the next wide generation. A worker's exception ends only that
      worker. A protocol bug raising in [step] raises on the calling
      domain, which runs every step, as {!explore} would raise it. A kill
      aimed at domain 0 propagates to the caller (see {!with_recovery}).

      Checkpointing: with [~snapshot_to:FILE] the exploration writes a
      durable {!Snapshot} of its newest exact generation boundary every
      [~snapshot_every] newly interned states (default 500,000), plus a
      final one whenever the run ends truncated (budget exhausted,
      deadline, or stopped by {!Snapshot.request_stop} / an installed
      signal handler). With [~resume_from:FILE] it restores that boundary
      — after checking the file's integrity and {!fingerprint} — and
      continues as if never interrupted: the final graph and statistics
      (modulo wall-clock) are bit-identical to an uninterrupted run with
      the same budget. Raises {!Snapshot.Error} on a corrupt or
      mismatched snapshot. [domains] is not part of the fingerprint: a
      snapshot taken at one domain count resumes at any other, to the
      same graph.

      [~deadline_s:S] stops the run gracefully at the first generation
      boundary reached after [S] wall-clock seconds {e of this
      invocation} (a resumed run gets a fresh deadline), flushing a final
      snapshot and reporting {!Checker_stats.Deadline}. [~salvage:true]
      makes the resume read tolerate a damaged snapshot tail: it rolls
      back to the newest intact chunk ({!Snapshot.read_chunks}) instead
      of refusing to start, warning on stderr about the rollback. On
      [Out_of_memory] (with [~snapshot_to]) the run flushes its newest
      exact boundary and degrades to a {!Checker_stats.Oom} result at
      that boundary. A budget below 1 explores nothing. *)

  val external_fingerprint : reduction:reduction -> config -> Digest.t * string
(** Fingerprint of the external-memory explorer's checkpoints and run
      files. Deliberately distinct from {!fingerprint}: an external
      checkpoint holds no transition lists and references run files, so
      the two snapshot kinds must never accept each other. *)

  val explore_external :
    ?max_states:int ->
    ?reduction:reduction ->
    ?snapshot_every:int ->
    ?snapshot_to:string ->
    ?resume_from:string ->
    ?mem_soft_limit_mb:int ->
    ?hot_cap:int ->
    ?disk_quota_bytes:int ->
    ?deadline_s:float ->
    ?salvage:bool ->
    ?wide:bool ->
    dir:string ->
    config ->
    Checker_stats.t
  (** External-memory breadth-first exploration: the visited set is split
      between an in-RAM hot table and sorted immutable run files under
      [dir] ({!Disk_visited}), so state spaces far beyond RAM become
      disk-bounded instead of [stop:"oom"]. Classic external BFS with
      delayed duplicate detection: each generation's unknown candidate
      keys are sorted once and resolved against every run in one
      streaming merge — no random disk access per candidate. The hot
      table spills as a new run when it reaches [hot_cap] keys (default
      [2{^ 20}]) or, with [~mem_soft_limit_mb], when the heap passes the
      watermark (followed by a heap compaction).

      Stats-only: no graph is materialized (transition lists would defeat
      the point), so properties cannot be checked on the result — this is
      the state-counting / accounting-audit mode. The statistics are
      bit-identical (in the {!Checker_stats.equal_ignoring_time} sense)
      to {!explore_with_stats} on the same configuration and budget:
      counts, depth profile, orbit sums, stop reason all match.

      It runs the same generation driver as {!explore_with_stats}, over
      the disk-backed store instead of the in-RAM one, so checkpointing,
      deadlines, stop reasons and salvage behave as there, with three
      differences: the envelope embeds the run-file manifest (and
      {!external_fingerprint}, not {!fingerprint}); a budget-threatened
      generation flushes the still-exact {e pre-generation} boundary
      before assigning ids (the hot table has no O(1) image), so a
      budget-truncated run resumes bit-identically; and a spill
      checkpoints the boundary at once. On [Out_of_memory]
      (with [~snapshot_to]) the run degrades to a {!Checker_stats.Oom}
      result whose resume point is the last periodic checkpoint. Under
      [~salvage] a resume walks the intact snapshot chunks newest-first
      until it finds one whose manifest's run files all re-validate —
      a damaged newest run file costs a rollback, not the exploration.

      [~wide:true] packs 4-byte {!Codec} key slots (for runs whose intern
      tables may exceed 2{^ 24} codes); a resumed run always continues at
      the interrupted run's width.

      [?disk_quota_bytes] bounds the total bytes the visited set may
      spill to [dir]. The quota is checked {e before} each spill: when
      the next spill would breach it the run degrades gracefully — stop
      exploring, flush the exact pre-generation boundary to
      [~snapshot_to] (when set), and report
      [stop_reason = {!Checker_stats.Disk_full}] — rather than corrupt
      or overrun the store. Resuming the checkpoint with a larger (or
      no) quota continues the exploration bit-identically. Under
      [~salvage], if {e no} intact checkpoint chunk has a fully valid
      run set, the run restarts from scratch (with a printed note)
      instead of failing. *)

  val with_recovery :
    ?max_retries:int ->
    ?resume_from:string ->
    snapshot_to:string ->
    (resume_from:string option -> snapshot_to:string -> 'a * Checker_stats.t) ->
    'a * Checker_stats.t
  (** [with_recovery ~snapshot_to run] drives [run] to a verdict across
      transient infrastructure failures. [run] is any checkpointing
      explorer — in-RAM ([graph * stats]) or external ([((), stats)]) —
      invoked with the resume point to use (initially [?resume_from]); it
      must checkpoint to [snapshot_to]. When it raises a transient
      exception ({!Resilience.Killed}, {!Resilience.Io_fault},
      [Out_of_memory], or a corrupt-snapshot {!Snapshot.Error}) — or
      returns statistics truncated by {!Checker_stats.Oom} — it probes
      [snapshot_to] with {!Snapshot.read_salvaged} and re-runs from the
      newest loadable boundary (from scratch if none). [max_retries]
      (default 3) bounds the retries with ONE total counter, whatever
      mix of fault kinds forced them — an alternating kill/EIO/OOM
      storm spends the same budget a single repeated fault would. The
      retry count is stamped into the returned statistics as
      {!Checker_stats.t.recoveries}. Because resumption is exact, the
      final result is bit-identical to a fault-free run. The [run]
      callback should pass [~salvage:true] to its explorer so a damaged
      snapshot tail rolls back rather than rejects. *)

  val solo_run :
    config ->
    state ->
    proc:int ->
    max_steps:int ->
    [ `Decided of P.output | `Out_of_steps | `Coin ]
  (** Run [proc] alone (deterministically) from [state]: the
      obstruction-freedom experiment. [`Coin] reports that the protocol
      flipped a coin, for which solo determinism does not hold. *)

  val check_obstruction_freedom :
    ?bound:int -> ?memo:bool -> graph -> (int * int) option
  (** For every reachable state and every non-decided process, the process
      running alone must decide within [bound] steps (default
      [4 * m * (n + 2) * (n + 2)]). Returns a counterexample
      (state index, proc).

      Solo runs are deterministic, so runs from states that share a
      (process, local state, memory) projection coincide; with [memo]
      (the default) every such projection's exact outcome distance is
      memoized and shared across start states. Verdicts are identical to
      [~memo:false] — the memo stores exact step distances, not verdicts,
      so the per-state bound arithmetic is unchanged; the test suite
      asserts the equivalence on every in-tree protocol. *)

  val to_flat : graph -> Flatgraph.t
  (** The shape the generic property checkers consume. Raises
      [Invalid_argument] for a graph past {!Flatgraph.max_edges}
      transitions, which its [int32] arrays cannot hold. *)
end
