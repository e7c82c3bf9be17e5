(** The per-theorem experiments of the reproduction (DESIGN.md §4).

    Each function regenerates the evidence for one row of EXPERIMENTS.md
    and returns the tables it produced. [Quick] keeps every experiment in
    the few-seconds range; [Full] widens the sweeps (all 120 namings at
    m = 5, larger random campaigns, deeper covering instances). *)

type speed = Quick | Full

val e1_mutex_model_check : speed -> Table.t list
(** Thm 3.1-3.3: exhaustive verification of Figure 1 for odd [m]. *)

val e2_even_m : speed -> Table.t list
(** Thm 3.1 (only-if): even [m] — lock-step livelock + exhaustive refutation. *)

val e3_gcd_grid : speed -> Table.t list
(** Thm 3.4: the (n, m) grid of symmetry attacks. *)

val e4_consensus : speed -> Table.t list
(** Thm 4.1/4.2: Figure 2 — exhaustive n=2 + random campaigns. *)

val e5_election : speed -> Table.t list
(** §4 note: election via consensus. *)

val e6_renaming : speed -> Table.t list
(** Thm 5.1-5.3: Figure 3 — exhaustive n=2 + adaptive campaigns. *)

val e7_covering_mutex : speed -> Table.t list
(** Thm 6.2: the covering adversary vs Figure 1. *)

val e8_covering_consensus : speed -> Table.t list
(** Thm 6.3: covering vs Figure 2 (unknown n, and n-1 registers). *)

val e9_covering_renaming : speed -> Table.t list
(** Thm 6.5: covering vs Figure 3 (unknown n, and n-1 registers). *)

val e10_named_baselines : speed -> Table.t list
(** Thm 6.1 / §3.2: what prior agreement buys — named-register baselines
    pass the same checkers, and the covering adversary dies without naming
    freedom. *)

val e11_ccp : speed -> Table.t list
(** §7: Rabin-style choice coordination on RMW anonymous registers. *)

val e12_starvation : speed -> Table.t list
(** Exact starvation-freedom verdicts (texture for a §8 open problem). *)

val e13_comparisons : speed -> Table.t list
(** §2's arbitrary-comparisons symmetry variant: even m becomes possible
    (reproduction-side extension). *)

val e14_multicore : speed -> Table.t list
(** Real-domains backend: the algorithms unchanged on OCaml 5 atomics. *)

val e15_property1 : speed -> Table.t list
(** §3.2's property 1 ("ignore extra registers"): holds with names, breaks
    anonymously. *)

val e16_hunting : speed -> Table.t list
(** Testing vs model checking: randomized hunting misses what exhaustive
    exploration finds instantly. *)

val e17_fairness : speed -> Table.t list
(** Long-run CS-entry split under a biased scheduler (companion to E12). *)

val e18_parallel_checker : speed -> Table.t list
(** The frontier-parallel model checker cross-validated against the
    sequential oracle: bit-identical graphs on every protocol family,
    with wall-clock throughput for both explorers. *)

val e19_crash_tolerance : speed -> Table.t list
(** Crash-fault injection: single-crash sweeps through the crash-aware
    checker (survivors of obstruction-free tasks still decide; Figure 1's
    mutex wedges when the peer crashes in its critical section, the
    executable face of Thm 6.2), plus multicore crash-stops and the
    hung-domain watchdog. *)

val e20_symmetry_reduction : speed -> Table.t list
(** Symmetry-quotient reduction factors, with orbit-sum soundness
    checks (DESIGN.md §9). *)

val e21_snapshot_overhead : speed -> Table.t list
(** Checkpoint/resume layer: throughput cost of periodic snapshots and a
    kill-at-half-budget resume whose final graph and statistics must be
    bit-identical to an uninterrupted run (DESIGN.md §10). *)

val e22_chaos_matrix : speed -> Table.t list
(** Seeded infrastructure-fault campaigns across the (explorer x
    storage) matrix: worker kills absorbed by supervision,
    whole-attempt faults retried from the newest salvageable snapshot,
    disk-visited byte quotas honoured as graceful stops (DESIGN.md §14). *)

val e23_serve_sweep : speed -> Table.t list
(** The job-queue service's declarative sweep engine: a mutex m-matrix
    run under a small preemption quantum (verdicts bit-identical to
    uninterrupted runs), gated against expected verdicts, then re-run
    against the same verdict cache to show repeat queries cost zero
    fresh states (DESIGN.md §15). *)

val all : speed -> Table.t list
(** Every experiment, in order. *)

val by_id : string -> (speed -> Table.t list) option
(** Look up an experiment by its identifier ("E1" .. "E23", case
    insensitive). *)
