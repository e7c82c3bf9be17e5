(** The protocol table: one entry per {!Spec.proto}, holding everything a
    check, fuzz, hunt, simulation or exploration of that protocol needs —
    its inputs, its judged properties, its fuzz property suite, its
    baseline twin and its witness-bundle input codec.

    [coordctl] and {!Runner} both look protocols up here, so the CLI and
    the daemon explore the same configurations and judge them by the same
    properties by construction. Consumers apply {!Check.Explore.Make},
    {!Check.Fuzz.Make} and {!Check.Hunt.Make} to [P] themselves. *)

open Anonmem

module type ENTRY = sig
  module P : Protocol.PROTOCOL

  val inputs : n:int -> P.input array
  (** Inputs of a checked, simulated, hunted or exported instance
      (consensus: distinct proposals [100, 200, ...]). *)

  val explore_inputs : n:int -> P.input array
  (** Inputs of [coordctl explore] and [bench] (consensus: all 42, so the
      configuration stays symmetric and the quotient has work to do). *)

  val verdicts : Check.Explore.Make(P).graph -> (string * bool) list
  (** The judged properties of an explored graph, in report order: the
      paper's claim for this protocol. Instance data (ids, inputs,
      namings) is read from the graph's configuration. *)

  val fuzz_properties : Check.Fuzz.Make(P).property list
  val gen_inputs : Rng.t -> n:int -> P.input array

  val deterministic : bool
  (** [false] for coin-flipping protocols (see {!Check.Fuzz.Make.run}). *)

  val twin : (Check.Gen.params -> P.input array -> string option) option
  (** A known-good baseline checked by the same property code: a complaint
      is a checker bug, reported by fuzzing as a disagreement. *)

  val input_to_string : P.input -> string
  val input_of_string : string -> P.input
  (** Witness-bundle codec ({!Check.Shrink.raw}). *)

  val hunt_violation : Check.Hunt.Make(P).R.t -> bool
end

val find : Spec.proto -> (module ENTRY)

val ids : n:int -> int array
(** Process identifiers of every instance the table builds:
    [(i + 1) * 17 + 1]. *)

val namings_under_test : n:int -> m:int -> Naming.t array list
(** The naming sweep of a check: all [m!] relative namings for [n = 2]
    and [m <= 5] (process 0 keeps the identity), else the rotation
    tuple. *)
