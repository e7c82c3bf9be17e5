(** Symmetry reduction: canonical representatives of states under the
    automorphisms of a configuration.

    In the memory-anonymous model a configuration is (ids, inputs,
    namings). A triple (sigma, pi, rho) — a process permutation, the
    induced physical-register permutation and the induced identifier
    relabeling — is an {e automorphism} when relabeling a global state by
    it commutes with every step of the protocol; exploring only the
    lex-least element of each orbit then yields a quotient graph that is
    bisimilar to the full one (soundness argument in DESIGN.md §9).

    The group is computed exactly by filtering all [n!] process
    permutations (guarded to [n <= 7]) against the configuration:
    all-identical namings with identical inputs yield the full symmetric
    group (n! reduction); the rotation tuple of Theorem 3.4 with [n = m]
    yields the cyclic group of order [m]; generic namings yield only the
    identity. Protocols that compare identifiers for more than equality
    declare [symmetric = false] and always get the identity group — the
    reduction soundly degrades to no reduction (see {!Make.degraded}).

    Two canonizers are provided. {!Make.canonize} is the reference
    implementation: it materializes every orbit image and sorts. The
    {!Make.ctx} family is the incremental path the explorers use: the
    lex-min search runs as integer work in the interned code space of the
    exploration's {!Codec}, memoizes the image of every code under every
    automorphism and the structural order between two codes, and rejects
    most automorphisms at their first differing slot without building an
    image. The in-RAM explorer calls it on code vectors
    ({!Make.canon_codes}); {!Make.state_key} and {!Make.canonize_keyed}
    are its structural-input wrappers. Both canonizers choose the same
    representative — the structural lex-min — and report the same orbit
    size; the test suite cross-checks them state by state. *)

module Make (P : Anonmem.Protocol.PROTOCOL) : sig
  type sym = {
    sigma : int array;
        (** process permutation: [q] plays the role of [sigma.(q)] *)
    sigma_inv : int array;  (** inverse of [sigma] *)
    pi : int array;  (** induced physical-register permutation *)
    pi_inv : int array;  (** inverse of [pi] *)
    rho : (int * int) array;
        (** identifier relabeling as (old, new) pairs; ids not listed are
            fixed, in particular the reserved empty value [0] *)
    rho_map : int -> int;
        (** [rho] as a precomputed constant-time function *)
  }

  val identity : n:int -> m:int -> sym

  val is_identity : sym -> bool
  (** Early-exits at the first displaced process. *)

  val max_procs : int
  (** Group enumeration guard: configurations with more processes get the
      identity group (the [n!] filter would be prohibitive). *)

  val degraded : n:int -> bool
  (** [true] iff [group] falls back to the identity group for an
      [n]-process configuration — because [P.symmetric] is [false] or
      [n > max_procs] — i.e. [~reduction:Canon] would silently explore
      the full graph. Callers are expected to surface this
      ({!Checker_stats.t.degraded}, the [coordctl] [--canon] notice)
      rather than let the degradation pass unannounced. *)

  val group :
    ids:int array ->
    inputs:P.input array ->
    namings:Anonmem.Naming.t array ->
    sym list
  (** All automorphisms of the configuration. Always contains the
      identity; is exactly [[identity]] when {!degraded}. *)

  val apply : sym -> P.Value.t array -> P.local array -> P.Value.t array * P.local array
  (** The image of a global state: fresh arrays with
      [mem'.(pi.(k)) = map_value_ids rho mem.(k)] and
      [locals'.(sigma.(q)) = map_local_ids rho locals.(q)]. *)

  val canonize :
    sym list -> P.Value.t array -> P.local array ->
    P.Value.t array * P.local array * int
  (** [canonize syms mem locals] is the lex-least element of the orbit
      under [syms] (by [Value.compare] on memory, then [compare_local] on
      locals) together with the orbit size (number of distinct images).
      With a trivial group the state is returned unchanged with orbit
      size 1. Reference implementation — materializes the whole orbit;
      the explorers use the incremental path below. *)

  (** {2 Incremental canonicalization} *)

  type 'k ctx
  (** Reusable canonicalization context over the interned codes of one
      exploration's {!Codec}: the group as an array, scratch buffers sized
      to the configuration, per-automorphism image tables indexed by
      code, and a memo of the structural order between two codes. ['k] is
      the key type its [pack] builds. One ctx per worker domain; a ctx
      must not be shared across domains (the codec behind the code
      closures may be — it is safe across domains). Reconstructible from
      the configuration at any time and never serialized. *)

  val make_ctx :
    syms:sym list ->
    value_code:(P.Value.t -> int) ->
    local_code:(P.local -> int) ->
    pack:(int array -> int array -> 'k) ->
    init:(P.Value.t array * P.local array) ->
    'k ctx
  (** [make_ctx ~syms ~value_code ~local_code ~pack ~init] builds a ctx
      for the group [syms], for {!state_key} and {!canonize_keyed}.
      [value_code]/[local_code] intern values into dense codes that are
      equality-faithful for [P.Value.compare] / [P.compare_local] (codes
      need not be order-faithful — the search compares codes for
      equality only, and takes direction from the structural order of the
      first differing pair). The ctx remembers the value behind every
      code it interns, so it needs no reverse tables. [pack] turns a
      (value-code vector, local-code vector) pair into the caller's key
      ({!Codec.key_of_codes}). [init] is any state of the configuration,
      used for buffer sizes. *)

  val make_codes_ctx :
    syms:sym list ->
    value_code:(P.Value.t -> int) ->
    local_code:(P.local -> int) ->
    value_of_code:(int -> P.Value.t) ->
    local_of_code:(int -> P.local) ->
    init:(P.Value.t array * P.local array) ->
    unit ctx
  (** A ctx for {!canon_codes}, whose callers hand it codes it did not
      intern itself: [value_of_code]/[local_of_code] map any code of the
      codec back to its value ({!Codec.Make.value_of_code}). *)

  val canon_codes : _ ctx -> int array -> int array -> int
  (** [canon_codes ctx vcodes lcodes] canonizes a state given by its code
      vector: when the state is not the lex-least element of its orbit,
      the least element's codes overwrite [vcodes] and [lcodes]. Returns
      the orbit size. No structural state is built; values are consulted
      only when an image, or the order between two codes, is not yet
      memoized. *)

  val state_key : 'k ctx -> P.Value.t array -> P.local array -> 'k
  (** Intern the state's codes into the ctx scratch and return the packed
      key of the state {e as is} (pre-canonicalization). Must be followed
      by {!canonize_keyed} on the same state before the ctx is reused. *)

  val canonize_keyed :
    'k ctx -> raw:'k -> P.Value.t array -> P.local array ->
    P.Value.t array * P.local array * 'k * int
  (** [canonize_keyed ctx ~raw mem locals] is the lex-least orbit element
      of the state whose codes the preceding {!state_key} call loaded,
      together with its packed key and the orbit size: the structural
      wrapper over the search {!canon_codes} runs. [raw] is the key that
      {!state_key} call returned; it is handed back as the key when the
      state is already canonical, so the common case packs exactly once.
      Agrees with {!canonize} on representative and orbit. Returns the
      input arrays themselves when the state is already canonical, fresh
      arrays otherwise. *)

  val pruned : _ ctx -> int
  (** Automorphisms rejected at their first differing slot without an
      image being built, cumulative over the ctx's lifetime (the
      "signature-pruned triples" statistic). *)
end
