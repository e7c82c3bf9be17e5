(** Declarative sweep engine: a matrix spec → queued jobs → a KPI table.

    A sweep file (key = value lines, [#] comments, list values
    comma-separated) names one experiment matrix:

    {v
    name       = mutex-landscape
    kind       = check            # check | fuzz | hunt
    protocols  = mutex, cmp-mutex
    n          = 2
    m          = 3, 4             # omitted: per-protocol default
    reductions = full, canon
    engines    = seq              # seq | sharded
    faults     = none, 42         # none, or a Resilience plan seed
    max_states = 200000
    expect     = pass             # regression gate for every cell ...
    expect.mutex-n2-m4 = violation   # ... overridden by label prefix
    v}

    {!expand} multiplies the axes into a deterministic, duplicate-free
    cell list (deduplicated on the canonical {!Spec.ident}, first
    occurrence wins); {!run} executes the cells on one worker pool with
    a shared verdict cache — so overlapping sweeps, and re-runs of the
    same sweep, are answered O(1) — streaming one progress line per
    cell and judging each against its regression gate. Fault cells arm
    [Resilience.plan_of_seed] for just that cell; the pool's recovery
    machinery absorbs the injected crashes.

    The KPI table (named-experiment rows → aggregate footer, in the
    style of the network-control sweep harness from the related-work
    repos) renders via [Report.Table] at the call sites — this module
    only produces the strings, so [lib/report] can itself depend on
    serve for experiment E23. *)

type spec = {
  name : string;
  kind : Spec.kind;
  protos : Spec.proto list;
  ns : int list;
  ms : int list option;  (** [None]: per-protocol default m *)
  reductions : Check.Explore.reduction list;
  engines : Spec.engine list;
  fault_seeds : int option list;  (** [None] = no fault plan *)
  seeds : int list;  (** fuzz/hunt axis *)
  strategies : Check.Hunt.strategy list;  (** hunt axis *)
  max_states : int option;
  attempts : int option;
  steps : int option;
  deadline_s : float option;
  expect_default : string option;  (** verdict tag every cell must match *)
  expect_overrides : (string * string) list;  (** label prefix → tag *)
}

val parse : string -> (spec, string) result
val load : path:string -> (spec, string) result

type cell = { label : string; job : Spec.t; fault_seed : int option }

val expand : spec -> cell list
(** Deterministic and duplicate-free (pinned by test_sweep). *)

type gate = [ `Ok | `Fail of string | `None ]

type row = {
  label : string;
  verdict : string;
  exit_code : int;
  states : int;
  explored : int;
  cached : bool;  (** every configuration was served from the verdict cache *)
  slices : int;
  recoveries : int;
  elapsed_s : float;
  gate : gate;
}

type report = {
  sweep : string;
  rows : row list;
  cells : int;
  gates_failed : int;
  violations : int;  (** cells ending 1 (violation) or 5 (disagreement) *)
  crashed : int;
  cached_cells : int;
  total_states : int;
  total_explored : int;
  elapsed_s : float;
}

val run :
  ?cache:Cache.t ->
  ?quantum:int ->
  ?state_dir:string ->
  ?progress:(string -> unit) ->
  spec ->
  report
(** Execute every cell (in {!expand} order) on a fresh single-worker
    pool sharing [cache]. [state_dir] holds preemption snapshots; by
    default it is a directory under the temp dir, keyed by pid, that the
    run removes when it ends (also when it raises). *)

val exit_code : report -> int
(** The [coordctl sweep] contract: with any gate configured, 1 iff a
    gate failed (expected violations pass their gates); with no gates,
    1 iff any cell found a violation/disagreement or crashed; else 0. *)

val kpi_header : string list
val kpi_rows : report -> string list list
val aggregate_lines : report -> string list
(** Footer notes: totals, cache economics, gate summary. *)

val to_json : ts:string -> report -> string
(** One BENCH_checker.json entry (the caller stamps the timestamp). *)

val append_bench : file:string -> ts:string -> report -> unit
(** Append {!to_json} to the JSON-array bench log in place. *)
