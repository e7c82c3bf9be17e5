(** The per-theorem experiments of the reproduction (DESIGN.md §4).

    Each experiment regenerates the evidence for one section of
    EXPERIMENTS.md and returns the tables it produced. The tables that
    model-check a protocol of {!Serve.Protocols} (E1, E2, E4a, E5a, E6a,
    E13, E20) build its configurations from the table and judge them with
    the entry's verdicts, as [coordctl check] does. *)

val registry : (string * (unit -> Table.t list)) list
(** Every experiment under its identifier ("E1" .. "E23"), in order. *)

val all : unit -> Table.t list
(** Every experiment's tables, in registry order. *)

val by_id : string -> (unit -> Table.t list) option
(** Look up an experiment of the registry by its identifier (case
    insensitive). *)
