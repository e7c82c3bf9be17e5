(** Strongly connected components (iterative Tarjan), for the fair-cycle
    analysis behind the deadlock-freedom verdicts. *)

type t = {
  count : int;  (** number of components *)
  component : int array;
      (** [component.(v)] is the component id of [v], [-1] when the state
          filter leaves [v] out *)
  first : int array;
  order : int array;
      (** for [c < count], component [c]'s states are [order.(first.(c))]
          to [order.(first.(c + 1) - 1)], in the order Tarjan pops them *)
}

val compute : ?alive:Bytes.t -> ?edges:Flatgraph.edge_filter -> Flatgraph.t -> t
(** [compute g] runs over the subgraph of [g] induced by the states whose
    byte in [alive] is not ['\000'] (default: every state) and the edges
    that [edges] keeps (default {!Flatgraph.all_edges}). Roots are taken in
    increasing state order and each state's edges in the graph's order.
    Iterative, over int arrays, so graphs with millions of states neither
    blow the OCaml stack nor allocate per state. Components are numbered
    as Tarjan completes them, i.e. sinks first: an edge [u -> v] across
    components has [component.(u) > component.(v)]. *)

val components : t -> int list array
(** Member states of each component, in decreasing order. *)
