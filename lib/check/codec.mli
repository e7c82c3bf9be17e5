(** Compact state encoding for the explorers.

    Register values and local states are interned on the fly into dense
    integer codes, and a global state is keyed by its code vector: first
    the [m] register codes, then the [n] local-state codes. Two key
    forms exist:

    - a {e word key} packs the vector into one non-negative [int], with
      [word_bits ~slots:(m + n)] = ⌊62 / (m + n)⌋ bits per slot
      ({!pack_word}). The in-RAM explorer interns word keys into an
      open-addressing [int] table;
    - a {e string key} packs it into a short [string], 3 bytes per slot
      by default, little-endian ({!Make.encode}, {!Make.key_of_codes}).
      The disk-backed explorer and the reference explorer key every
      state this way, and the in-RAM explorer keys the states whose codes
      do not fit a word this way (the overflow). A state's codes never
      change within a run, so a state is always keyed the same way.

    Interning is keyed by the protocol's own structural orders
    ([Value.compare], [compare_local]), so two states receive equal keys
    iff they are structurally equal. Codes are discovery-order dependent:
    keys from different [t] values (or different runs) are not
    comparable, and nothing outside one exploration may rely on a
    particular code assignment. Every code maps back to the value or
    local it was interned from ({!Make.value_of_code},
    {!Make.local_of_code}), so an explorer can work on codes alone and
    build a structural state only when it needs one.

    The tables are safe to share across domains: lookups are lock-free
    reads of a persistent map behind an [Atomic.t], and a miss interns
    under a lock. *)

exception Overflow of { kind : string; code : int; width : int }
(** Raised when an interned code does not fit the context's key width
    (code ≥ 2²⁴ at the default 3-byte width). Packing would otherwise
    silently truncate the id and alias two distinct states — a missed
    violation. Recover by re-running with [create ~wide:true] (4-byte
    slots, max 2³² − 1 codes). [kind] names the overflowing table
    ("value", "local" or "proc"). *)

val word_bits : slots:int -> int
(** Bits per slot of a word key for [slots = m + n] slots: ⌊62 / slots⌋. *)

val pack_word : bits:int -> int array -> int array -> int
(** [pack_word ~bits vcodes lcodes] is the word key of a code vector
    ([vcodes] in the low slots), or [-1] when some code needs more than
    [bits] bits. *)

val unpack_word : bits:int -> int -> int array -> int array -> unit
(** [unpack_word ~bits key vcodes lcodes] writes the code vector of a
    word key into [vcodes] and [lcodes]. *)

module Make (P : Anonmem.Protocol.PROTOCOL) : sig
  type t
  (** Mutable interning context for one exploration. *)

  val create : ?wide:bool -> unit -> t
  (** [create ()] packs 3 bytes per slot; [create ~wide:true ()] packs 4,
      for explorations whose intern tables may exceed 2²⁴ entries. Keys
      from contexts of different widths are never comparable. *)

  val width : t -> int
  (** Bytes per packed slot: 3, or 4 under [~wide]. *)

  val encode : t -> P.Value.t array -> P.local array -> string
  (** [encode t mem locals] is the packed key of a global state. Length
      is [width t * (m + n)] bytes.
      @raise Overflow if an interned code exceeds the key width. *)

  val key_of_codes : t -> int array -> int array -> string
  (** [key_of_codes t vcodes lcodes] packs already-interned code vectors
      into a key, byte-identical to what [encode] produces for the state
      they were interned from. Used by the incremental canonizer, which
      works on codes and never re-touches the values.
      @raise Overflow as for [encode]. *)

  val codes_of_key : t -> string -> int array -> int array -> unit
  (** [codes_of_key t key vcodes lcodes] writes the code vector of a key
      made by {!encode} or {!key_of_codes} into [vcodes] and [lcodes]. *)

  val encode_solo : t -> proc:int -> P.local -> P.Value.t array -> string
  (** Key for a (process, local state, memory) triple — the full input of
      a deterministic solo run, used to memoize obstruction-freedom
      checks.
      @raise Overflow as for [encode]. *)

  val value_code : t -> P.Value.t -> int
  (** Dense code of one register value (interning it if new). *)

  val local_code : t -> P.local -> int
  (** Dense code of one local state (interning it if new). *)

  val value_of_code : t -> int -> P.Value.t
  (** The value interned at a code, from any domain that holds the code. *)

  val local_of_code : t -> int -> P.local
  (** The local state interned at a code. *)

  val n_values : t -> int
  (** Number of distinct register values interned so far. *)

  val n_locals : t -> int
  (** Number of distinct local states interned so far. *)

  type dump
  (** Immutable plain-data image of the interning tables (protocol values,
      locals and ints only — safe to [Marshal]). Snapshots carry a dump so
      a resumed exploration re-encodes every state to the {e same} packed
      key bytes as the interrupted run, keeping shard assignment and
      statistics bit-identical across the resume. The dump records the key
      width, so a resume continues at the width of the interrupted run. *)

  val dump : t -> dump

  val of_dump : dump -> t
  (** A fresh context that continues the dumped one: already-interned
      values keep their codes (and map back to them); new values extend
      from where it left off. *)
end
