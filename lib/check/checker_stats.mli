(** Observability for the model checker.

    Every exploration (sequential or frontier-parallel) can report what it
    did: states per second, the frontier profile per BFS depth, and how
    often candidate successors deduplicated against already-known states.
    The record is plain data so benchmark harnesses can serialize it
    (see {!to_json}) into BENCH_*.json entries. *)

type depth_sample = {
  depth : int;  (** BFS generation *)
  frontier : int;  (** states expanded at this depth *)
  candidates : int;  (** successor states generated *)
  discovered : int;  (** genuinely new states interned *)
  duplicates : int;  (** candidates that deduplicated away *)
}

(** Why an exploration stopped. [Completed] iff [complete = true]; every
    other reason describes what truncated the run. Deterministic for
    identical settings (unlike wall-clock), so it participates in
    {!equal_ignoring_time}. *)
type stop_reason =
  | Completed  (** the reachable graph was exhausted *)
  | Budget  (** [max_states] truncated the search *)
  | Interrupted  (** SIGINT/SIGTERM or {!Snapshot.request_stop} *)
  | Deadline  (** the [~deadline_s] wall-clock budget elapsed *)
  | Oom
      (** [Out_of_memory] was degraded into a flushed boundary instead of
          a crash *)
  | Disk_full
      (** the disk-backed visited set hit its byte quota: spilling
          stopped and the run was cut at an exact boundary instead of
          corrupting the run set *)

val stop_reason_tag : stop_reason -> string
(** Lower-case tag, as rendered in {!to_json}. *)

type t = {
  protocol : string;
  n_procs : int;
  n_registers : int;
  domains : int;  (** 1 for the sequential reference explorer *)
  n_states : int;
  n_transitions : int;
  max_depth : int;
  max_frontier : int;
  candidates : int;
      (** states examined for interning: the initial state plus every
          generated successor. On a complete run
          [candidates = n_states + dedup_hits]. *)
  dedup_hits : int;  (** total candidates that were already known *)
  elapsed_s : float;
  complete : bool;
  stop : stop_reason;  (** {!Completed} iff [complete] *)
  restarts : int;
      (** worker domains the parallel explorer found dead and respawned;
          0 without domain faults *)
  recoveries : int;
      (** whole exploration attempts {!Explore.Make.with_recovery}
          retried after a transient infrastructure failure (killed
          domain 0, allocation failure, corrupt snapshot, injected I/O
          fault); 0 outside [with_recovery].
          Infrastructure weather, scrubbed by {!equal_ignoring_time}. *)
  canon : bool;  (** explored the symmetry quotient, not the full graph *)
  degraded : bool;
      (** [canon] was requested but the group silently fell back to the
          identity ([symmetric = false] protocol, or [n > 7]): the full
          graph was explored despite the Canon reduction being on *)
  group_order : int;  (** automorphism group order (1 = no reduction) *)
  orbit_sum : int;
      (** sum of orbit sizes over stored states = size of the full graph
          the quotient stands for; equals [n_states] when not [canon] *)
  sig_pruned : int;
      (** automorphisms rejected at their first differing slot by the
          incremental canonizer, without an image being materialized *)
  canon_hits : int;
      (** raw successors whose canonical form was served from the
          per-domain memo instead of a group walk *)
  cutover : int option;
      (** BFS depth at which the explorer switched from its sequential
          warm-up to parallel generations; [None] when the whole run
          stayed sequential (small frontier or [domains = 1]) *)
  spilled_runs : int;
      (** sorted immutable runs the disk-backed visited set wrote; 0 for
          in-RAM explorations *)
  disk_probes : int;
      (** batched sorted-merge membership probes against the on-disk
          runs; 0 for in-RAM explorations *)
  depths : depth_sample list;  (** oldest (depth 0) first *)
}

val now : unit -> float
(** Wall-clock seconds (the clock explorations are timed with). *)

val states_per_sec : t -> float

val dedup_rate : t -> float
(** Fraction of candidates (initial state included) that were already
    interned. *)

val reduction_factor : t -> float
(** [orbit_sum / n_states]: how many full-graph states each stored
    quotient state stands for. 1.0 when no symmetry reduction applied. *)

val equal_ignoring_time : t -> t -> bool
(** Structural equality of every field except [elapsed_s] (wall-clock can
    never reproduce), the cache-effectiveness counters [sig_pruned] and
    [canon_hits] (which depend on domain count and on where a resume
    restarted its cold caches), and the infrastructure-weather counters
    [restarts], [recoveries], [spilled_runs] and [disk_probes]
    (scheduling luck and watermark timing, not graph facts). This is the
    "bit-identical statistics"
    relation the checkpoint/resume tests assert: a truncated-then-resumed
    exploration must match an uninterrupted one on everything the clock
    and the caches don't touch — counts, depth profile, orbit sums,
    cutover. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human summary. *)

val pp_depths : Format.formatter -> t -> unit
(** The per-depth frontier table. *)

val to_json : t -> string
(** A self-contained JSON object for BENCH_*.json tracking. *)
