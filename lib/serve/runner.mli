(** Job execution: one spec → one verdict, in preemptible slices.

    Every protocol is wired once, in {!Protocols}; this module is the one
    loop that runs a job over that table, for the daemon and for
    [coordctl check] alike. A check job sweeps
    {!Protocols.namings_under_test} (all [m!] relative namings for
    [n = 2, m <= 5]; the rotation tuple otherwise) and judges each
    explored graph by the entry's [verdicts], so a served verdict and a
    CLI exit code come from the same code. Each configuration yields one
    line of [detail]: its namings, its state count, [truncated] when cut,
    and its verdicts.

    Under a [quantum] the job runs as a sequence of {e slices}: each slice
    explores at most [quantum] fresh states of the current configuration,
    then yields with a COORDSNAP snapshot on disk. Because a resumed
    exploration is bit-identical to an uninterrupted one (DESIGN.md §6),
    preemption is free — the final verdict and per-config stats (mod
    clock) cannot depend on where the scheduler cut.

    Fuzz and hunt jobs are not preemptible (their engines own their inner
    loop); they run in a single slice, with the entry's property suite
    and baseline twin.

    Completed configurations are memoized in the shared {!Cache}; a
    cache-served configuration contributes its original stats and zero
    freshly explored states. *)

type verdict =
  | Pass
  | Violation
  | Truncated  (** a state budget truncated some exploration; prefix clean *)
  | Deadline  (** the job deadline expired; prefix clean *)
  | Disagreement  (** fuzz: engines diverged — a checker bug *)
  | Failed of string  (** infrastructure failure / unsupported combination *)

val verdict_exit : verdict -> int
(** The [coordctl] exit-code contract: 0 pass, 1 violation, 3 truncated,
    5 disagreement, 6 deadline, 7 failed. *)

val verdict_tag : verdict -> string

type outcome = {
  verdict : verdict;
  detail : string;  (** per-config verdict lines, [; ]-joined *)
  configs : int;  (** naming assignments in the sweep (1 for fuzz/hunt) *)
  cached_configs : int;  (** of which answered from the cache *)
  states : int;  (** total graph states across configs, cached included *)
  explored : int;  (** states freshly interned by {e this} execution *)
  stats : Check.Checker_stats.t list;  (** per config, in sweep order *)
}

type progress
(** Cursor of a partially-run check job: which configuration is current,
    how many of its states the snapshot covers, accumulated verdicts. *)

val start : progress
(** The cursor before any slice has run. *)

val progress_explored : progress -> int
(** Fresh states explored so far (for pool accounting across slices). *)

val after_crash : snapshot:string -> progress -> progress
(** Repair the cursor after a slice died mid-exploration: if the snapshot
    file survived, the next slice resumes (with salvage) from it;
    otherwise the current configuration restarts from scratch. Completed
    configurations are never lost — their verdicts live in the cursor. *)

type slice = Done of outcome | Yield of progress

val run_slice :
  ?cache:Cache.t ->
  ?quantum:int ->
  ?deadline_left_s:float ->
  ?salvage:bool ->
  ?domains:int ->
  ?snapshot_every:int ->
  ?resume:string ->
  ?recover:bool ->
  ?snapshot:string ->
  Spec.t ->
  progress ->
  slice
(** Run one slice. [quantum] bounds the fresh states a check job explores
    per slice, and a slice ends with each configuration; without a
    quantum the job runs to completion in one slice. [deadline_left_s] is
    the remaining wall budget of the whole job: each exploration gets
    what is left of it as the explorer's [~deadline_s], so an expired
    deadline stops gracefully at a generation boundary with the snapshot
    flushed, and ends the job. Consecutive cache hits are folded into the
    same slice, so a job whose every configuration is cached completes in
    one slice with [explored = 0].

    [snapshot] is the job's checkpoint file (none: no checkpoints), for
    the configuration in progress: it is removed when the job moves to the
    next configuration and kept when the job ends on an incomplete one.
    Without a quantum, a stop request ({!Check.Snapshot.request_stop}) or
    a degraded stop ends the job there, judged on the explored prefix.
    [domains] and [snapshot_every] reach the explorer. [resume] is a
    snapshot from an earlier run: the configuration whose fingerprint it
    carries resumes from it, the others explore fresh, and a snapshot
    that matches none raises {!Check.Snapshot.Error}. With [recover] (and
    a [snapshot]), transient infrastructure failures retry from the
    newest salvageable checkpoint ({!Check.Explore.Make.with_recovery});
    without it they escape as exceptions and the {!Pool} owns the retry
    policy. *)
