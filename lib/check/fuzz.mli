(** Property-based differential fuzzing: generated instances, cross-checked
    engines, replayable witnesses.

    One fuzzing attempt draws an instance skeleton from {!Gen}, adds
    protocol inputs, and runs it through every engine the repo has:

    - the sequential explorer ({!Explore.Make.explore}) — the reference;
    - the parallel explorer ({!Explore.Make.explore_with_stats} on the
      host's recommended domain count) — must produce a bit-identical
      graph;
    - the graph-level property checkers ({!Mutex_props}, {!Props});
    - the concrete runtime, twice: every graph-level witness is replayed as
      a schedule script and must reproduce, and independent randomized
      {e probes} run schedules the graph verdict must predict;
    - optionally a known-good baseline twin on the same inputs, which must
      come out clean under the same property code.

    Any inconsistency between engines is a {e disagreement} — a bug in the
    checker, not in the protocol — and is reported separately from honest
    protocol violations. Violations come with a {!Shrink.Make.bundle} ready
    for minimization and the regression corpus. *)

open Anonmem

(** A property's verdict on one instance. [Undecided] means the state
    budget truncated exploration and no probe found a violation. *)
type verdict = Clean | Violation | Undecided

val pp_verdict : Format.formatter -> verdict -> unit

module Make (P : Protocol.PROTOCOL) : sig
  module E : module type of Explore.Make (P)
  module S : module type of Shrink.Make (P)

  (** Where a property failed in the explored graph. *)
  type graph_witness =
    | State of int  (** a reachable bad state (safety) *)
    | Cycle of int list  (** a fair non-progress cycle's states (liveness) *)

  type property = {
    name : string;
    check : E.graph -> Flatgraph.t -> graph_witness option;
        (** graph-level verdict; receives the graph and its flattened
            form (shared across properties) *)
    rt_check : (P.input array -> S.R.t -> bool) option;
        (** the same property as a runtime-state predicate, when it is a
            safety property — drives probe runs and witness replay. The
            instance's inputs are passed in because some properties (e.g.
            validity) are relative to them. *)
  }

  val mutex_me : property
  val mutex_df : property  (** liveness: witnesses are lassos *)

  val agreement : equal:(P.output -> P.output -> bool) -> property

  val validity : allowed:(P.input array -> P.output -> bool) -> property
  (** [allowed inputs o]: is [o] a legal decision given the instance's
      inputs? *)

  val distinct_outputs : equal:(P.output -> P.output -> bool) -> property
  (** Renaming / election-style uniqueness. *)

  val witness_bundle :
    seed:int -> E.graph -> graph_witness -> S.bundle option
  (** Turn a graph-level witness into a replayable bundle: a BFS schedule
      prefix for a [State] witness; a prefix plus a fair loop visiting
      every obliged process for a [Cycle]. [None] only if the witness
      state is unreachable (a checker bug the caller reports). *)

  type disagreement = {
    attempt : int;  (** attempt index at which engines diverged *)
    subject : string;  (** which engines, e.g. ["seq/par graphs"] *)
    detail : string;
  }

  type report = {
    attempts : int;
    agreed : int;  (** attempts on which every engine leg concurred *)
    violations : int;  (** attempts with a (cross-validated) violation *)
    undecided : int;
    by_boundary : (string * int) list;
        (** attempts per {!Gen.boundary_label} class *)
    first_witness : (string * S.bundle) option;
        (** property name + bundle for the first confirmed violation *)
    disagreement : disagreement option;
        (** the first divergence, if any — [None] is the differential
            pass verdict *)
  }

  val pp_report : Format.formatter -> report -> unit

  val run :
    ?seed:int ->
    ?attempts:int ->
    ?time_budget:float ->
    ?max_states:int ->
    ?probes:int ->
    ?profile:Gen.profile ->
    ?fixed:int option * int option ->
    ?deterministic:bool ->
    ?crash_probes:bool ->
    ?twin:(Gen.params -> P.input array -> string option) ->
    properties:property list ->
    gen_inputs:(Rng.t -> n:int -> P.input array) ->
    unit ->
    report
  (** Run up to [attempts] generated instances (stopping early after
      [time_budget] seconds if given; default unlimited). Each attempt is
      derived from [seed] (default 1) alone, so a report is reproducible
      from its seed. [fixed] pins n and/or m instead of drawing them from
      [profile]. [max_states] (default 20000) bounds each exploration;
      truncated attempts come out [Undecided] unless a probe finds a
      violation. [probes] (default 4) randomized runtime schedules per
      attempt cross-check every safety property's graph verdict;
      [crash_probes] (default true) lets probes inject crash-stop faults
      (sound: crashes only restrict schedules, so the crash-free graph
      covers every probe run). [deterministic] (default true) must be set
      to false for coin-flipping protocols: witness replay cannot force
      coin outcomes, so bundles are not built and replay legs are
      skipped. [twin pars inputs] runs a known-good baseline on the same
      instance and returns [Some complaint] if it fails its own property
      check — which indicts the shared checker code, hence counts as a
      disagreement. *)
end
