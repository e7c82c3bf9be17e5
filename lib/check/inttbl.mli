(** Open-addressing hash table from non-negative [int] keys to
    non-negative [int] values: the in-RAM explorer's visited set for word
    keys. No allocation per operation.

    Not thread-safe. Concurrent {!find}s are safe while nobody adds; a
    {!find} that races an {!add} or a {!clear} stays memory-safe and
    terminates, but its answer means nothing. *)

type t

val create : int -> t
(** [create n] sizes the table for about [n] keys; it grows on demand. *)

val find : t -> int -> int
(** [find t k] is the value bound to [k], or [-1] when [k] is absent. *)

val add : t -> int -> int -> unit
(** [add t k v] binds [k], which must be absent and [>= 0], to [v >= 0]. *)

val clear : t -> unit
(** Remove every binding, keeping the capacity. *)
