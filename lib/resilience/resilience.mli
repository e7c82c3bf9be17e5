(** Deterministic infrastructure-fault injection for the checker itself.

    PR 2 brought the paper's crash model to the {e verified} protocols;
    this module applies the same discipline to the {e verifier}: seeded,
    replayable plans of infrastructure faults — a worker domain killed
    mid-generation, a snapshot write torn or bit-flipped on its way to
    disk, an allocation failure at a generation boundary, a heartbeat
    stalled — injected at fixed points inside {!Check.Explore},
    {!Check.Snapshot} and {!Parallel.Prun}.

    The hook is zero-cost when disarmed: every injection point is a
    single [Atomic.get] returning [None]. Faults are armed process-wide
    ({!arm}/{!disarm}); each fault in a plan fires at most once, so a
    finite plan always lets a recovering exploration converge. Plans are
    pure data derived from a single integer seed ({!plan_of_seed}), which
    is what makes a whole fault campaign replayable: print the seed, and
    anyone can re-run the identical sequence of disasters. *)

exception Killed of { domain : int }
(** Raised out of an injection point to simulate the sudden death of a
    domain (or, for domain 0, of the whole exploration). Never raised
    while disarmed. *)

exception Io_fault of { op : string }
(** Raised out of {!io_write}/{!io_sync} to simulate a failed disk
    operation ([EIO], [ENOSPC], a refused fsync). Faults fire at most
    once, so {!Check.Explore.Make.with_recovery} treats it as transient:
    retrying from the newest salvageable state converges. Never raised
    while disarmed. *)

type fault =
  | Kill_domain of { domain : int; after_ticks : int }
      (** raise {!Killed} out of [domain]'s [after_ticks]-th tick *)
  | Stall_domain of { domain : int; after_ticks : int; for_s : float }
      (** freeze [domain] for [for_s] seconds at its [after_ticks]-th
          tick — a GC pause, a noisy neighbour, a page fault storm *)
  | Torn_write of { nth_write : int; keep : float }
      (** truncate the [nth_write]-th snapshot payload to a [keep]
          fraction of its bytes: power loss mid-write *)
  | Flip_byte of { nth_write : int; at : float }
      (** XOR one byte of the [nth_write]-th snapshot payload, at
          relative offset [at] in [0,1): silent media corruption *)
  | Alloc_fail of { after_boundaries : int }
      (** raise [Out_of_memory] at the [after_boundaries]-th generation
          boundary *)
  | Short_write of { nth_io : int; keep : float }
      (** silently truncate the [nth_io]-th disk write to a [keep]
          fraction of its bytes: a disk that acknowledged data it never
          stored. Unlike [Torn_write] (counted per snapshot payload),
          this fires at the raw I/O layer, where visited-set run spills
          and snapshot chunks alike pass through *)
  | Io_error of { nth_io : int }
      (** raise {!Io_fault} ([EIO]) out of the [nth_io]-th disk write *)
  | Disk_full of { after_bytes : int }
      (** raise {!Io_fault} ([ENOSPC]) out of the first disk write that
          pushes the cumulative bytes offered to the disk past
          [after_bytes] *)
  | Fsync_fail of { nth_sync : int }
      (** raise {!Io_fault} out of the [nth_sync]-th fsync: the data may
          be in the page cache, but durability was refused *)

type plan = { seed : int; faults : fault list }

val plan_of_seed : ?domains:int -> ?intensity:int -> ?disk:bool -> int -> plan
(** Derive a deterministic fault plan from [seed]: roughly [intensity]
    faults (default 4) mixing domain kills/stalls (victims drawn from
    [0, domains)], default 4), torn/bit-flipped snapshot writes and one
    allocation failure. With [~disk:true] the mix also draws storage
    faults (short writes, I/O errors, disk-full, fsync failures);
    [false] (the default) reproduces the exact plans older seeds gave,
    keeping recorded campaign seeds replayable. Equal arguments give
    equal plans. *)

val pp_fault : Format.formatter -> fault -> unit

val pp_plan : Format.formatter -> plan -> unit
(** One line, e.g.
    [kill d1@t3; stall d2@t5 (0.05s); tear w2 (keep 40%); alloc g7 (seed 11)]. *)

val arm : plan -> unit
(** Arm [plan] process-wide. Tick and write counters restart from zero;
    any previously armed plan is replaced. *)

val disarm : unit -> unit
(** Disarm; all injection points become no-ops again. *)

val armed : unit -> bool

val fired : unit -> int
(** Number of faults of the armed plan that have fired so far (faults
    fire at most once). 0 when disarmed. *)

val pending : unit -> fault list
(** Faults of the armed plan that have not fired yet ([] when disarmed). *)

val has_disk_faults : unit -> bool
(** The armed plan still holds an unfired storage fault
    ([Short_write]/[Io_error]/[Disk_full]/[Fsync_fail]). *)

(** {2 Injection points}

    Called by the instrumented infrastructure; all are single-atomic-load
    no-ops when disarmed, and safe to call from any domain. *)

val worker_tick : domain:int -> unit
(** One unit of work attributed to [domain]. Fires matured
    [Kill_domain] (raises {!Killed}) and [Stall_domain] (sleeps) faults
    for that domain. *)

val stall_tick : domain:int -> unit
(** Like {!worker_tick} but only fires [Stall_domain] faults — for
    layers (e.g. {!Parallel.Prun}) that model crashes themselves and
    only borrow the stall injection. *)

val boundary_tick : unit -> unit
(** One generation boundary on the exploring thread. Fires matured
    [Alloc_fail] faults by raising [Out_of_memory]. *)

val mutate_write : string -> string option
(** [mutate_write payload] counts one snapshot payload write and, when a
    [Torn_write]/[Flip_byte] fault matures on it, returns the damaged
    bytes the caller must put on disk instead; [None] means write the
    payload unharmed. *)

val io_write : string -> string
(** [io_write bytes] counts one disk write operation (and its bytes)
    and serves matured storage faults: [Io_error] and [Disk_full] raise
    {!Io_fault}; [Short_write] returns a truncated prefix the caller
    must put on disk instead. Returns [bytes] unharmed otherwise. *)

val io_sync : unit -> unit
(** Counts one fsync; a matured [Fsync_fail] raises {!Io_fault}. *)
