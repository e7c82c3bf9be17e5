(** Protocol-agnostic view of a reachable-state graph: just statuses and
    labeled edges. The generic property checkers (mutual exclusion,
    deadlock freedom, agreement shapes) work on this, so they are shared by
    every protocol without functor plumbing.

    The graph is stored in compressed sparse row (CSR) form, with no
    per-state or per-edge heap block: one status byte per (state,
    process), edge offsets and destination ids in [int32] Bigarrays, and
    one label byte per edge. A state's edges keep the explorer's order,
    which the checkers' verdicts and witnesses depend on. *)

open Anonmem

(** Status of one process in one state, without the output payload. *)
type proc_status = Rem | Try | Crit | Exit | Done

type trans = { dst : int; proc : int; enters_cs : bool }
(** One edge as a record: the list view of {!of_lists} and {!succs}. *)

type int32s = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n_procs : int;
  status : Bytes.t;
      (** [n_states * n_procs] bytes, state-major: byte [v * n_procs + p]
          is the {!code} of process [p]'s status in state [v] *)
  offsets : int32s;
      (** [n_states + 1] entries: state [v]'s edges are [offsets.{v}] to
          [offsets.{v + 1} - 1] *)
  dsts : int32s;  (** [dsts.{e}]: the state edge [e] leads to *)
  labels : Bytes.t;
      (** byte [e] is edge [e]'s {!label}: [(proc lsl 1) lor enters_cs] *)
  complete : bool;
}

val max_edges : int
(** [2^31 - 1]: the most transitions (and states) the [int32] arrays
    address. *)

val max_procs : int
(** [127]: a label byte holds the process in its upper seven bits. *)

val create : n_procs:int -> n_states:int -> n_edges:int -> complete:bool -> t
(** Arrays for a graph of this size, for a builder to fill: every status
    [Rem], every offset [0]. Raises [Invalid_argument] past {!max_edges}
    transitions or states or {!max_procs} processes, before allocating. *)

val of_lists :
  ?complete:bool -> n_procs:int -> proc_status array array -> trans list array -> t
(** [of_lists ~n_procs statuses succs]: the graph whose state [v] has
    statuses [statuses.(v)] and edges [succs.(v)], in that order.
    [complete] defaults to [true]. *)

val n_states : t -> int
val n_edges : t -> int

val code : proc_status -> int
(** A status's byte in [status]: [Rem] 0, [Try] 1, [Crit] 2, [Exit] 3,
    [Done] 4. *)

val label : proc:int -> enters_cs:bool -> int

val status : t -> int -> int -> proc_status
(** [status g v p]: process [p]'s status in state [v]. *)

val statuses : t -> int -> proc_status array
(** Every process's status in one state. *)

val succs : t -> int -> trans list
(** One state's edges, in order. *)

(** Which edges a search follows: edge [e] is skipped when
    [label land mask = skip]. *)
type edge_filter = { mask : int; skip : int }

val all_edges : edge_filter
val no_entry : edge_filter  (** skips every edge that enters a critical section *)

val no_entry_by : int -> edge_filter
(** [no_entry_by p] skips the edges on which process [p] enters its
    critical section. *)

val of_status : 'o Protocol.status -> proc_status

val pp_status : Format.formatter -> proc_status -> unit
