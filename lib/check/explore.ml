open Anonmem

type reduction = Full | Canon

let reduction_tag = function Full -> "full" | Canon -> "canon"

module Make (P : Protocol.PROTOCOL) = struct
  module Cd = Codec.Make (P)
  module Cn = Canon.Make (P)

  type config = {
    ids : int array;
    inputs : P.input array;
    namings : Naming.t array;
  }

  let config ?m ~ids ~inputs () =
    let ids = Array.of_list ids in
    let n = Array.length ids in
    let m = match m with Some m -> m | None -> P.default_registers ~n in
    {
      ids;
      inputs = Array.of_list inputs;
      namings = Array.init n (fun _ -> Naming.identity m);
    }

  type state = { mem : P.Value.t array; locals : P.local array }

  type label = { proc : int; enters_cs : bool }

  type transition = { dst : int; label : label }

  type graph = {
    cfg : config;
    states : state array;
    orbits : int array;
    succs : transition list array;
    complete : bool;
  }

  let initial cfg =
    let n = Array.length cfg.ids in
    let m = Naming.size cfg.namings.(0) in
    {
      mem = Array.make m P.Value.init;
      locals =
        Array.init n (fun i -> P.start ~n ~m ~id:cfg.ids.(i) cfg.inputs.(i));
    }

  let statuses st = Array.map P.status st.locals

  let with_local st proc local =
    let locals = Array.copy st.locals in
    locals.(proc) <- local;
    { st with locals }

  let with_write st proc local phys v =
    let mem = Array.copy st.mem in
    mem.(phys) <- v;
    let locals = Array.copy st.locals in
    locals.(proc) <- local;
    { mem; locals }

  (* All states one step of [proc] can lead to (two for a coin flip). *)
  let step_states cfg st proc =
    let n = Array.length st.locals in
    let m = Array.length st.mem in
    let naming = cfg.namings.(proc) in
    match P.step ~n ~m ~id:cfg.ids.(proc) st.locals.(proc) with
    | Protocol.Read (j, k) ->
      let v = st.mem.(Naming.apply naming j) in
      [ with_local st proc (k v) ]
    | Protocol.Write (j, v, l) ->
      [ with_write st proc l (Naming.apply naming j) v ]
    | Protocol.Rmw (j, f) ->
      let phys = Naming.apply naming j in
      let v, l = f st.mem.(phys) in
      [ with_write st proc l phys v ]
    | Protocol.Internal l -> [ with_local st proc l ]
    | Protocol.Coin k -> [ with_local st proc (k true); with_local st proc (k false) ]

  let successors cfg st =
    let acc = ref [] in
    Array.iteri
      (fun proc local ->
        if not (Protocol.is_decided (P.status local)) then begin
          let before_crit = P.status local = Protocol.Critical in
          List.iter
            (fun st' ->
              let enters_cs =
                (not before_crit)
                && P.status st'.locals.(proc) = Protocol.Critical
              in
              acc := ({ proc; enters_cs }, st') :: !acc)
            (step_states cfg st proc)
        end)
      st.locals;
    List.rev !acc

  (* The automorphism group of [cfg], or [] when the reduction is off so
     the hot path can skip orbit enumeration entirely. *)
  let syms_of ~reduction cfg =
    match reduction with
    | Full -> []
    | Canon -> Cn.group ~ids:cfg.ids ~inputs:cfg.inputs ~namings:cfg.namings

  let canon_degraded ~n = Cn.degraded ~n

  (* Per-domain reduction context: the incremental canonizer plus a memo
     of raw successors already canonized. Reconstructible from the
     configuration alone — never serialized into snapshots; a resumed run
     starts with cold caches and produces the same graph bit for bit. *)
  type canon_cache = {
    inc : Cn.ctx option;  (* [Some] iff the group is non-trivial *)
    memo : (string, state * string * int) Hashtbl.t;
    mutable hits : int;
  }

  (* Drop the raw-successor memo rather than grow it without bound; the
     cap is far above every in-tree workload's distinct-raw-state count. *)
  let canon_memo_cap = 1 lsl 20

  let make_canon_cache codec syms st0 =
    let inc =
      match syms with
      | [] | [ _ ] -> None
      | syms ->
        Some
          (Cn.make_ctx ~syms
             ~value_code:(Cd.value_code codec)
             ~local_code:(Cd.local_code codec)
             ~pack:(Cd.key_of_codes codec)
             ~init:(st0.mem, st0.locals))
    in
    {
      inc;
      memo = Hashtbl.create (match inc with None -> 1 | Some _ -> 4096);
      hits = 0;
    }

  (* Canonical representative, its packed key and orbit size — the
     Canon-path replacement for [Cn.canonize] + [Cd.encode]. Memoized on
     the raw successor's own key: in a quotiented BFS each raw state
     recurs through graph diamonds, and those recurrences skip the group
     walk entirely. *)
  let canonize_cached cc codec st =
    match cc.inc with
    | None -> (st, Cd.encode codec st.mem st.locals, 1)
    | Some inc -> (
      let raw = Cn.state_key inc st.mem st.locals in
      match Hashtbl.find_opt cc.memo raw with
      | Some hit ->
        cc.hits <- cc.hits + 1;
        hit
      | None ->
        let mem, locals, key, orbit =
          Cn.canonize_keyed inc ~raw st.mem st.locals
        in
        let rep = if mem == st.mem then st else { mem; locals } in
        if Hashtbl.length cc.memo >= canon_memo_cap then Hashtbl.reset cc.memo;
        Hashtbl.add cc.memo raw (rep, key, orbit);
        (rep, key, orbit))

  (* ---------------------------------------------------------------- *)
  (* durable checkpoints                                               *)
  (* ---------------------------------------------------------------- *)

  (* Periodic-snapshot cadence (newly interned states between writes)
     when [~snapshot_to] is given without an explicit [~snapshot_every]. *)
  let default_snapshot_every = 500_000

  let fingerprint ~reduction cfg =
    let descr =
      Printf.sprintf "protocol=%s n=%d m=%d reduction=%s" P.name
        (Array.length cfg.ids)
        (Naming.size cfg.namings.(0))
        (reduction_tag reduction)
    in
    let digest =
      Digest.string
        (Marshal.to_string
           (P.name, cfg.ids, cfg.inputs, cfg.namings, reduction_tag reduction)
           [])
    in
    (digest, descr)

  let describe ~reduction cfg =
    let buf = Buffer.create 128 in
    let ppf = Format.formatter_of_buffer buf in
    Format.fprintf ppf "protocol=%s ids=[" P.name;
    Array.iteri
      (fun i id -> Format.fprintf ppf "%s%d" (if i > 0 then ";" else "") id)
      cfg.ids;
    Format.fprintf ppf "] inputs=[";
    Array.iteri
      (fun i inp ->
        if i > 0 then Format.fprintf ppf ";";
        P.pp_input ppf inp)
      cfg.inputs;
    Format.fprintf ppf "] namings=[";
    Array.iteri
      (fun i nm ->
        if i > 0 then Format.fprintf ppf ";";
        Naming.pp ppf nm)
      cfg.namings;
    Format.fprintf ppf "] reduction=%s" (reduction_tag reduction);
    Format.pp_print_flush ppf ();
    Buffer.contents buf

  (* A resume point, captured only at expansion boundaries where the run
     was still exact (no budget drop, no worker failure): states [0, n)
     are interned, states [0, k) are expanded with their transition lists
     recorded, and the pending frontier is exactly states [k, n) in id
     order — which is precisely the FIFO order the sequential reference
     explorer would expand them in, so continuing from a snapshot is
     indistinguishable from never having stopped. The codec dump keeps
     packed keys byte-identical across the resume, which keeps shard
     assignment (and therefore [shard_load]) bit-identical too. *)
  type snapshot_payload = {
    sp_states : state array;
    sp_orbits : int array;
    sp_succs : transition list array;  (** the expanded prefix *)
    sp_depth : int;  (** BFS depth of the pending generation *)
    sp_depths_rev : Checker_stats.depth_sample list;
    sp_candidates : int;
    sp_dedup : int;
    sp_max_frontier : int;
    sp_orbit_sum : int;
    sp_cutover : int option;
    sp_elapsed : float;
    sp_codec : Cd.dump;
    sp_rng : int64 option;
        (* explorations are deterministic — always [None] today; the slot
           lets randomized drivers checkpoint without a format bump *)
  }

  (* In-memory image of the same boundary. O(1) to capture: the chunk
     lists are persistent, so consing later generations never mutates a
     stashed tail. *)
  type boundary = {
    b_states : state array list;  (* reversed chunks *)
    b_orbits : int array list;
    b_trans : transition list array list;
    b_n_states : int;
    b_n_expanded : int;
    b_depth : int;
    b_depths_rev : Checker_stats.depth_sample list;
    b_cand : int;
    b_dups : int;
    b_max_frontier : int;
    b_orbit_sum : int;
    b_cutover : int option;
  }

  (* The plain FIFO-queue reference explorer (no checkpoint machinery);
     [explore] below dispatches here when no snapshot option is given. *)
  let explore_basic ~max_states ~reduction cfg =
    let codec = Cd.create () in
    let syms = syms_of ~reduction cfg in
    let cc = make_canon_cache codec syms (initial cfg) in
    let table : (string, int) Hashtbl.t = Hashtbl.create 4096 in
    let states_rev = ref [] in
    let orbits_rev = ref [] in
    let n_states = ref 0 in
    let pending = Queue.create () in
    let complete = ref true in
    let intern st =
      let rep, key, orbit = canonize_cached cc codec st in
      match Hashtbl.find_opt table key with
      | Some id -> Some id
      | None ->
        if !n_states >= max_states then begin
          complete := false;
          None
        end
        else begin
          let id = !n_states in
          Hashtbl.add table key id;
          states_rev := rep :: !states_rev;
          orbits_rev := orbit :: !orbits_rev;
          incr n_states;
          Queue.add rep pending;
          Some id
        end
    in
    ignore (intern (initial cfg));
    (* [pending] is FIFO and ids are handed out in discovery order, so the
       queue pops states in id order: consing each expansion's transition
       list and reversing at the end rebuilds the id-indexed array without
       any intermediate id-keyed table. *)
    let succs_rev = ref [] in
    while not (Queue.is_empty pending) do
      let st = Queue.pop pending in
      let trans =
        List.filter_map
          (fun (label, st') ->
            match intern st' with
            | Some dst -> Some { dst; label }
            | None -> None)
          (successors cfg st)
      in
      succs_rev := trans :: !succs_rev
    done;
    {
      cfg;
      states = Array.of_list (List.rev !states_rev);
      orbits = Array.of_list (List.rev !orbits_rev);
      succs = Array.of_list (List.rev !succs_rev);
      complete = !complete;
    }

  (* Frontier-parallel BFS.

     The sequential explorer above pops a FIFO queue, so states are
     discovered generation by generation: every state at depth d gets an id
     below every state at depth d+1, and within one generation ids follow
     (expanded-state id ascending, successor position ascending). The
     parallel explorer reproduces exactly that order.

     Generations start sequential: while the frontier is narrower than
     [par_threshold] the crew's synchronization costs more than the
     expansion work, so worker 0 expands the whole generation alone
     (before any domain is spawned at all, if the warm-up is still
     running). Once the frontier first reaches the threshold, the worker
     domains spawn — that depth is recorded as the [cutover] stat — and
     each wide generation is served by the sharded owners ("one wide
     generation" below). Narrow generations after the cutover (a draining
     frontier) drop back to sequential expansion by worker 0. The result
     is bit-identical to [explore] on every input and every mode
     schedule, which the test suite cross-checks for every in-tree
     protocol. *)

  (* Supervised-crew work epoch. Published as ONE atomic record so a
     worker can never pair one epoch's unit table with another epoch's
     work function. Unit cells: 0 unclaimed, [slot + 1] claimed by that
     crew slot, -1 done. *)
  type epoch = {
    ep_id : int;
    ep_units : int Atomic.t array;
    ep_fn : int -> int -> unit;  (** slot -> unit index *)
  }

  (* One cross-shard candidate in flight between two domains of the
     sharded crew: the candidate key [h_ckey] fixes its place in the
     sequential discovery order; the rest is what the owning shard needs
     to resolve it without re-canonizing. *)
  type handoff = { h_ckey : int; h_key : string; h_rep : state; h_orbit : int }

  let explore_impl ~max_states ~domains ~par_threshold ~reduction
      ~handoff_batch ~steal_batch ~snapshot_every ~snapshot_to ~resume_from
      ~mem_soft_limit_mb ~deadline_s ~salvage ~supervise cfg =
    let d = max 1 domains in
    let handoff_batch = max 1 handoff_batch in
    let steal_batch = max 1 steal_batch in
    let n_procs = Array.length cfg.ids in
    let n_registers = Naming.size cfg.namings.(0) in
    let fp = lazy (fingerprint ~reduction cfg) in
    let resumed : snapshot_payload option =
      match resume_from with
      | None -> None
      | Some path ->
        let meta, payload =
          if salvage then begin
            let meta, payload, salv = Snapshot.read_salvaged ~path in
            (match salv with
            | Some s ->
              (* the resume is exact from an OLDER boundary; worth a
                 visible note since work after that boundary is redone *)
              Format.eprintf
                "snapshot salvage: %s: %s; rolled back to chunk %d@." path
                s.Snapshot.detail s.Snapshot.kept_chunks
            | None -> ());
            (meta, payload)
          end
          else Snapshot.read ~path
        in
        let digest, descr = Lazy.force fp in
        Snapshot.check_fingerprint ~path meta ~fingerprint:digest ~descr;
        Some (Marshal.from_string payload 0)
    in
    (* The wall-clock deadline is invocation-local: a resumed run gets a
       fresh [deadline_s] from now, while [t0] below is back-dated for the
       cumulative [elapsed_s] stat. *)
    let deadline_at =
      Option.map (fun s -> Checker_stats.now () +. s) deadline_s
    in
    (* Why the run stopped; first truncation cause wins. *)
    let stopped = ref Checker_stats.Completed in
    let set_stop r =
      if !stopped = Checker_stats.Completed then stopped := r
    in
    let restarts_total = ref 0 in
    (* Elapsed time accumulates across resumes: back-date [t0] by the
       snapshot's recorded wall-clock. *)
    let t0 =
      Checker_stats.now ()
      -. (match resumed with Some sp -> sp.sp_elapsed | None -> 0.)
    in
    let codec =
      match resumed with
      | Some sp -> Cd.of_dump sp.sp_codec
      | None -> Cd.create ()
    in
    let syms = syms_of ~reduction cfg in
    let group_order = max 1 (List.length syms) in
    let canon = reduction = Canon in
    let degraded = canon && Cn.degraded ~n:n_procs in
    (* one reduction context per worker domain: ctxs are single-threaded,
       the codec behind them is shared (and CAS-safe) *)
    let ccs =
      Array.init d (fun _ -> make_canon_cache codec syms (initial cfg))
    in
    let sig_pruned () =
      Array.fold_left
        (fun acc cc ->
          acc + match cc.inc with Some i -> Cn.pruned i | None -> 0)
        0 ccs
    in
    let canon_hits () = Array.fold_left (fun acc cc -> acc + cc.hits) 0 ccs in
    let cutover =
      ref (match resumed with Some sp -> sp.sp_cutover | None -> None)
    in
    let orbit_sum = ref 0 in
    (* Sharded-crew weather counters, one slot per domain (disjoint
       writes; read after the joins). Never part of bit-identity. *)
    let steals_ctr = Array.make d 0 in
    let handoffs_ctr = Array.make d 0 in
    let stats_base ~n_states ~n_transitions ~max_depth ~max_frontier
        ~candidates ~dedup_hits ~shard_load ~complete ~depths =
      {
        Checker_stats.protocol = P.name;
        n_procs;
        n_registers;
        domains = d;
        n_states;
        n_transitions;
        max_depth;
        max_frontier;
        candidates;
        dedup_hits;
        shard_load;
        elapsed_s = Checker_stats.now () -. t0;
        complete;
        stop = (if complete then Checker_stats.Completed else !stopped);
        restarts = !restarts_total;
        recoveries = 0;
        canon;
        degraded;
        group_order;
        orbit_sum = !orbit_sum;
        sig_pruned = sig_pruned ();
        canon_hits = canon_hits ();
        cutover = !cutover;
        steals = Array.fold_left ( + ) 0 steals_ctr;
        handoffs = Array.fold_left ( + ) 0 handoffs_ctr;
        spilled_runs = 0;
        disk_probes = 0;
        depths;
      }
    in
    if max_states < 1 then begin
      set_stop Checker_stats.Budget;
      ( { cfg; states = [||]; orbits = [||]; succs = [||]; complete = false },
        stats_base ~n_states:0 ~n_transitions:0 ~max_depth:0 ~max_frontier:0
          ~candidates:0 ~dedup_hits:0 ~shard_load:(Array.make d 0)
          ~complete:false ~depths:[] )
    end
    else begin
      let rep0, _, orbit0 = canonize_cached ccs.(0) codec (initial cfg) in
      (* Shard s owns every state whose structural hash is s mod d. The
         hash is over the canonical state, NOT the packed codec key:
         codec codes are assigned in racy first-encode order during wide
         generations, so key bytes differ run to run, while the
         structural hash is a pure function of the state — shard
         assignment (and the [shard_load] statistic) stays deterministic
         and therefore reproducible across checkpoint/resume. *)
      let state_owner (st : state) = Hashtbl.hash st mod d in
      let shard_tbl : (string, int) Hashtbl.t array =
        Array.init d (fun _ -> Hashtbl.create 1024)
      in
      (* Per-shard scratch: the fresh slot of each new key seen this
         generation, so later duplicates resolve to it. *)
      let scratch : (string, int) Hashtbl.t array =
        Array.init d (fun _ -> Hashtbl.create 256)
      in
      let b = Parallel.Barrier.create d in
      (* ---- sharded-crew plumbing (allocated only when d > 1) --------
         One SPSC ring per ordered domain pair carries batched cross-shard
         candidates; per-domain fixed buffers amortize the ring traffic.
         Each owner keeps a private resolution log of
         (candidate key, target) pairs — single-writer, merged by worker 0
         at generation end in candidate-key order, which replays the
         sequential id assignment exactly. *)
      let sd = if d > 1 then d else 0 in
      (* [kmax] bounds successors per state (each of the n processes
         contributes at most two, via a coin), so
         [ckey = frontier index * kmax + successor position] is globally
         unique and sorts by (frontier index, position) — the sequential
         discovery order. *)
      let kmax = max 1 (2 * n_procs) in
      let ring_cap = 64 in
      let rings =
        Array.init sd (fun _ ->
            Array.init sd (fun _ -> Parallel.Spsc.create ~dummy:[||] ring_cap))
      in
      let dummy_handoff =
        { h_ckey = 0; h_key = ""; h_rep = rep0; h_orbit = 0 }
      in
      let out_buf =
        Array.init sd (fun _ ->
            Array.init sd (fun _ -> Array.make handoff_batch dummy_handoff))
      in
      let out_len = Array.init sd (fun _ -> Array.make sd 0) in
      (* owner-side, single-writer per slot: resolution log, fresh-slot
         vectors (reversed; slot s = index s after the sort-phase rev) *)
      let logs : (int * int) list ref array =
        Array.init sd (fun _ -> ref [])
      in
      let sorted_logs : (int * int) array array = Array.make sd [||] in
      let slot_cnt = Array.make sd 0 in
      let slot_keys_rev : string list ref array =
        Array.init sd (fun _ -> ref [])
      in
      let slot_reps_rev : state list ref array =
        Array.init sd (fun _ -> ref [])
      in
      let slot_orbs_rev : int list ref array =
        Array.init sd (fun _ -> ref [])
      in
      let slot_keys_arr : string array array = Array.make sd [||] in
      let slot_reps_arr : state array array = Array.make sd [||] in
      let slot_orbs_arr : int array array = Array.make sd [||] in
      (* per-generation: successor labels in position order (disjoint slot
         writes), per-shard frontier worklists + steal cursors, and the
         termination counter (unexpanded states + in-flight candidates) *)
      let gen_labels : label array array ref = ref [||] in
      let wl : int array array ref = ref [||] in
      let wl_cursor = Array.init sd (fun _ -> Atomic.make 0) in
      let pending = Atomic.make 0 in
      (* Exploration state: fresh, or rebuilt from the snapshot. In a
         snapshot all expanded states form the prefix [0, n_expanded) of
         the id order and the pending frontier is the rest. *)
      let init_states, init_orbits, init_succs =
        match resumed with
        | None -> ([| rep0 |], [| orbit0 |], [||])
        | Some sp -> (sp.sp_states, sp.sp_orbits, sp.sp_succs)
      in
      (* Shared per-generation structures. Plain refs: every write is
         published to the readers of the next phase by the barrier. *)
      let stop = ref false in
      let n_expanded = ref (Array.length init_succs) in
      let frontier =
        ref
          (Array.sub init_states !n_expanded
             (Array.length init_states - !n_expanded))
      in
      let n_states = ref (Array.length init_states) in
      let complete = ref true in
      let states_chunks = ref [ init_states ] in
      let orbits_chunks = ref [ init_orbits ] in
      let trans_chunks =
        ref (if Array.length init_succs = 0 then [] else [ init_succs ])
      in
      (* stats accumulators (worker 0 only) *)
      let depth = ref (match resumed with Some sp -> sp.sp_depth | None -> 0) in
      let depths_rev =
        ref (match resumed with Some sp -> sp.sp_depths_rev | None -> [])
      in
      (* The initial state is a candidate too — it is interned exactly like
         any successor — so fresh runs start at 1, keeping the invariant
         [candidates = n_states + dedup_hits] on complete runs. (Snapshots
         carry the running total; the format version gates out pre-fix
         snapshots whose totals were one short.) *)
      let total_cand =
        ref (match resumed with Some sp -> sp.sp_candidates | None -> 1)
      in
      let total_dups =
        ref (match resumed with Some sp -> sp.sp_dedup | None -> 0)
      in
      let max_frontier =
        ref (match resumed with Some sp -> sp.sp_max_frontier | None -> 1)
      in
      let failure = ref None in
      let fail_mutex = Mutex.create () in
      let guard f =
        try f ()
        with e ->
          Mutex.lock fail_mutex;
          (match !failure with None -> failure := Some e | Some _ -> ());
          Mutex.unlock fail_mutex
      in
      orbit_sum :=
        (match resumed with Some sp -> sp.sp_orbit_sum | None -> orbit0);
      (* (Re)build the interning tables. The codec dump keeps re-encoded
         keys consistent with the interrupted run's; shard ownership is
         structural, so each state lands back in the shard it owned.
         States in a snapshot are already canonical — no
         re-canonicalization here. *)
      Array.iteri
        (fun id st ->
          let key = Cd.encode codec st.mem st.locals in
          Hashtbl.add shard_tbl.(state_owner st) key id)
        init_states;
      (* Setup of a wide (parallel-mode) generation, run by the single
         worker that just closed the previous one — and again by the
         supervisor when a failed attempt is replayed (the reset below is
         exactly what makes a retry start from a clean slate). *)
      let prep_parallel_gen head =
        let nf = Array.length head in
        gen_labels := Array.make nf [||];
        let counts = Array.make d 0 in
        Array.iter
          (fun st ->
            let s = state_owner st in
            counts.(s) <- counts.(s) + 1)
          head;
        let wls = Array.init d (fun s -> Array.make counts.(s) 0) in
        let fill = Array.make d 0 in
        Array.iteri
          (fun i st ->
            let s = state_owner st in
            wls.(s).(fill.(s)) <- i;
            fill.(s) <- fill.(s) + 1)
          head;
        wl := wls;
        for s = 0 to d - 1 do
          Atomic.set wl_cursor.(s) 0;
          logs.(s) := [];
          slot_cnt.(s) <- 0;
          slot_keys_rev.(s) := [];
          slot_reps_rev.(s) := [];
          slot_orbs_rev.(s) := [];
          Hashtbl.reset scratch.(s)
        done;
        (* defensive: a previous generation that aborted on a failure may
           have left batches in flight *)
        Array.iter
          (Array.iter (fun r ->
               while Parallel.Spsc.try_pop r <> None do () done))
          rings;
        Atomic.set pending nf
      in
      (* Mode of the generation about to run; worker 0 decides the next
         one at every generation end. *)
      let seq_gen = ref (d = 1 || Array.length !frontier < par_threshold) in
      if not !seq_gen then prep_parallel_gen !frontier;
      (* Batch-carry: under memory pressure a generation's frontier is
         split into prefix batches of at most [batch_cap] states. Graph
         and id order stay bit-identical (expansion still proceeds in id
         order); only the per-depth sample granularity degrades. *)
      let pending_carry = ref [||] in
      let batch_cap = ref max_int in
      let min_batch = 16 in
      let soft_limit_bytes =
        match mem_soft_limit_mb with
        | Some mb -> Some (mb * 1024 * 1024)
        | None -> None
      in
      let heap_bytes () =
        let s = Gc.quick_stat () in
        s.Gc.heap_words * (Sys.word_size / 8)
      in
      let capture_boundary () =
        {
          b_states = !states_chunks;
          b_orbits = !orbits_chunks;
          b_trans = !trans_chunks;
          b_n_states = !n_states;
          b_n_expanded = !n_expanded;
          b_depth = !depth;
          b_depths_rev = !depths_rev;
          b_cand = !total_cand;
          b_dups = !total_dups;
          b_max_frontier = !max_frontier;
          b_orbit_sum = !orbit_sum;
          b_cutover = !cutover;
        }
      in
      (* The newest boundary at which the run was still exact; when the
         budget truncates or a signal stops us, this is what gets flushed
         to disk so a resumed run can replay the suffix bit-identically. *)
      let last_boundary = ref (capture_boundary ()) in
      let last_snapshot_states = ref !n_states in
      let snapshot_gap =
        match snapshot_every with
        | Some e -> max 1 e
        | None -> default_snapshot_every
      in
      let write_boundary path bd =
        let payload =
          {
            sp_states = Array.concat (List.rev bd.b_states);
            sp_orbits = Array.concat (List.rev bd.b_orbits);
            sp_succs = Array.concat (List.rev bd.b_trans);
            sp_depth = bd.b_depth;
            sp_depths_rev = bd.b_depths_rev;
            sp_candidates = bd.b_cand;
            sp_dedup = bd.b_dups;
            sp_max_frontier = bd.b_max_frontier;
            sp_orbit_sum = bd.b_orbit_sum;
            sp_cutover = bd.b_cutover;
            sp_elapsed = Checker_stats.now () -. t0;
            sp_codec = Cd.dump codec;
            sp_rng = None;
          }
        in
        let digest, descr = Lazy.force fp in
        (* durable O(new data) append; the snapshot layer compacts the
           file back to one chunk every [Snapshot.max_chunks] boundaries *)
        Snapshot.append ~path ~fingerprint:digest ~descr
          (Marshal.to_string payload [])
      in
      (* Close out a generation: record its transitions and stats, append
         the fresh states (already in id order), stash the resume boundary
         and pick the next mode. *)
      let finish_gen ~tr ~fresh ~orbs ~ncand ~dups ~discovered =
        (* fault seam: a matured Alloc_fail raises [Out_of_memory] here,
           before this generation is committed, exercising the same
           degradation path a real allocation failure would *)
        Resilience.boundary_tick ();
        trans_chunks := tr :: !trans_chunks;
        n_expanded := !n_expanded + Array.length tr;
        depths_rev :=
          {
            Checker_stats.depth = !depth;
            frontier = Array.length !frontier;
            candidates = ncand;
            discovered;
            duplicates = dups;
          }
          :: !depths_rev;
        total_cand := !total_cand + ncand;
        total_dups := !total_dups + dups;
        let nf = Array.length fresh in
        if nf > 0 then begin
          states_chunks := fresh :: !states_chunks;
          orbits_chunks := orbs :: !orbits_chunks
        end;
        let next =
          if Array.length !pending_carry = 0 then fresh
          else Array.append !pending_carry fresh
        in
        let nn = Array.length next in
        if nn = 0 || !failure <> None then stop := true
        else begin
          if nn > !max_frontier then max_frontier := nn;
          (* graceful degradation: past the soft memory watermark, halve
             the expansion batch (floor [min_batch]) and checkpoint now
             rather than running into [Out_of_memory] with nothing saved *)
          let pressured =
            match soft_limit_bytes with
            | Some limit -> heap_bytes () > limit
            | None -> false
          in
          if pressured then
            batch_cap :=
              if !batch_cap = max_int then max min_batch (nn / 2)
              else max min_batch (!batch_cap / 2);
          let head, carry =
            if nn > !batch_cap then
              ( Array.sub next 0 !batch_cap,
                Array.sub next !batch_cap (nn - !batch_cap) )
            else (next, [||])
          in
          pending_carry := carry;
          frontier := head;
          incr depth;
          seq_gen := d = 1 || Array.length head < par_threshold;
          if not !seq_gen then prep_parallel_gen head;
          (* the run is exact up to this boundary: stash it (O(1)) and
             service periodic durable snapshots *)
          if !complete then begin
            last_boundary := capture_boundary ();
            match snapshot_to with
            | Some path
              when pressured
                   || !n_states - !last_snapshot_states >= snapshot_gap ->
              write_boundary path !last_boundary;
              last_snapshot_states := !n_states
            | _ -> ()
          end;
          if pressured then Gc.compact ();
          (* SIGINT/SIGTERM (or a programmatic stop request): stop at this
             boundary; the final snapshot is flushed on the way out *)
          if Snapshot.stop_requested () then begin
            complete := false;
            set_stop Checker_stats.Interrupted;
            stop := true
          end;
          (* wall-clock deadline: same graceful stop, distinct reason so
             the CLI can map it to its own exit code *)
          (match deadline_at with
          | Some td when Checker_stats.now () >= td ->
            complete := false;
            set_stop Checker_stats.Deadline;
            stop := true
          | _ -> ())
        end
      in
      (* One whole generation, sequentially (worker 0 / warm-up). Interns
         straight into the shard tables so later parallel generations
         find the states in the right shard. *)
      let expand_seq () =
        let fr = !frontier in
        let nf = Array.length fr in
        let tr = Array.make nf [] in
        let fresh_rev = ref [] in
        let orb_rev = ref [] in
        let ncand = ref 0 and dups = ref 0 and discovered = ref 0 in
        for i = 0 to nf - 1 do
          (* fault seam: a matured kill/stall for domain 0 fires here *)
          Resilience.worker_tick ~domain:0;
          tr.(i) <-
            List.filter_map
              (fun (label, st') ->
                incr ncand;
                let rep, key, orbit = canonize_cached ccs.(0) codec st' in
                let tbl = shard_tbl.(state_owner rep) in
                match Hashtbl.find_opt tbl key with
                | Some dst ->
                  incr dups;
                  Some { dst; label }
                | None ->
                  if !n_states >= max_states then begin
                    complete := false;
                    set_stop Checker_stats.Budget;
                    None
                  end
                  else begin
                    let id = !n_states in
                    incr n_states;
                    incr discovered;
                    Hashtbl.add tbl key id;
                    orbit_sum := !orbit_sum + orbit;
                    fresh_rev := rep :: !fresh_rev;
                    orb_rev := orbit :: !orb_rev;
                    Some { dst = id; label }
                  end)
              (successors cfg fr.(i))
        done;
        finish_gen ~tr
          ~fresh:(Array.of_list (List.rev !fresh_rev))
          ~orbs:(Array.of_list (List.rev !orb_rev))
          ~ncand:!ncand ~dups:!dups ~discovered:!discovered
      in
      let expand_seq_guarded () =
        guard expand_seq;
        if !failure <> None then stop := true
      in
      (* ---------------- sharded owners: one wide generation ----------
         No per-phase barriers: every domain continuously expands frontier
         states (its own shards' worklists first, stealing from the
         heaviest shard when dry), resolves candidates its shards own the
         moment they arrive, and hands the rest over the mailboxes. The
         only synchronization is the termination counter [pending] plus
         two barriers at generation end (logs complete; logs sorted),
         after which worker 0 merges the per-owner logs in candidate-key
         order — replaying exactly the sequential id scan, so the result
         is bit-identical to [explore]'s.

         SLOTS and SHARDS are distinct notions throughout: a slot is a
         crew member (a domain), a shard a partition of the state space.
         The unsupervised crew pins slot [s] to shard [s] for the whole
         run ([leased = ref [s]]); the supervised crew hands shards out
         as LEASES a slot holds until the generation attempt ends, so a
         crew smaller than [d] — a worker that exhausted its restart
         budget — still serves every shard, and a dead owner's shard is
         reassigned to a survivor by the same CAS claim that hands out
         epoch work. *)
      let log_add o ckey target = logs.(o) := (ckey, target) :: !(logs.(o)) in
      (* Owner-side resolution for [shard]; only its current lease holder
         may call this. Targets: [id >= 0] an already-interned state;
         [-1 - slot] the [slot]-th distinct fresh key this shard saw this
         generation. Which arrival creates the slot is a race, but rep
         and orbit are functions of the key, and the id is assigned at
         merge time to the occurrence that is first in candidate-key
         order — so arrival order never shows. *)
      let resolve_local shard ~ckey ~key ~rep ~orbit =
        match Hashtbl.find_opt shard_tbl.(shard) key with
        | Some id -> log_add shard ckey id
        | None -> (
          match Hashtbl.find_opt scratch.(shard) key with
          | Some slot -> log_add shard ckey (-1 - slot)
          | None ->
            let slot = slot_cnt.(shard) in
            slot_cnt.(shard) <- slot + 1;
            Hashtbl.add scratch.(shard) key slot;
            slot_keys_rev.(shard) := key :: !(slot_keys_rev.(shard));
            slot_reps_rev.(shard) := rep :: !(slot_reps_rev.(shard));
            slot_orbs_rev.(shard) := orbit :: !(slot_orbs_rev.(shard));
            log_add shard ckey (-1 - slot))
      in
      (* Pop every producer's ring into [shard]'s resolution structures.
         Single-consumer discipline: only the shard's current lease
         holder calls this. A slot's own ring for a shard it leases can
         only hold batches it pushed before acquiring the lease
         mid-attempt, so popping it is same-thread and safe. *)
      let drain_shard shard =
        let got = ref false in
        for p = 0 to d - 1 do
          let continue_ = ref true in
          while !continue_ do
            match Parallel.Spsc.try_pop rings.(p).(shard) with
            | Some batch ->
              got := true;
              Array.iter
                (fun h ->
                  resolve_local shard ~ckey:h.h_ckey ~key:h.h_key ~rep:h.h_rep
                    ~orbit:h.h_orbit)
                batch;
              ignore (Atomic.fetch_and_add pending (-Array.length batch))
            | None -> continue_ := false
          done
        done;
        !got
      in
      let drain_leased leased =
        List.fold_left
          (fun acc s ->
            let got = drain_shard s in
            got || acc)
          false !leased
      in
      let rec flush_ring ~abort slot ~leased o =
        let len = out_len.(slot).(o) in
        if len > 0 then
          if
            Parallel.Spsc.try_push rings.(slot).(o)
              (Array.sub out_buf.(slot).(o) 0 len)
          then begin
            out_len.(slot).(o) <- 0;
            handoffs_ctr.(slot) <- handoffs_ctr.(slot) + 1
          end
          else if abort () then
            (* the consumer may be dead; the generation is aborting *)
            out_len.(slot).(o) <- 0
          else begin
            (* full ring: draining our own inboxes is the one productive,
               deadlock-free thing to do while the owner catches up *)
            ignore (drain_leased leased);
            Domain.cpu_relax ();
            flush_ring ~abort slot ~leased o
          end
      in
      (* Every buffered batch, including batches for shards we lease
         ourselves (buffered before a mid-attempt lease claim): those go
         through our own ring and come back out in [drain_shard]. *)
      let flush_all ~abort slot ~leased =
        for o = 0 to d - 1 do
          flush_ring ~abort slot ~leased o
        done
      in
      let hand_off ~abort slot ~leased o h =
        if out_len.(slot).(o) = handoff_batch then flush_ring ~abort slot ~leased o;
        out_buf.(slot).(o).(out_len.(slot).(o)) <- h;
        out_len.(slot).(o) <- out_len.(slot).(o) + 1
      in
      let expand_one ~abort slot ~leased i =
        Resilience.worker_tick ~domain:slot;
        let succ = successors cfg !frontier.(i) in
        !gen_labels.(i) <- Array.of_list (List.map fst succ);
        let cross = ref 0 in
        List.iteri
          (fun pos (_, st') ->
            let rep, key, orbit = canonize_cached ccs.(slot) codec st' in
            let o = state_owner rep in
            let ckey = (i * kmax) + pos in
            if List.mem o !leased then resolve_local o ~ckey ~key ~rep ~orbit
            else begin
              incr cross;
              hand_off ~abort slot ~leased o
                { h_ckey = ckey; h_key = key; h_rep = rep; h_orbit = orbit }
            end)
          succ;
        (* retire the state token and charge the handed-off candidates in
           one atomic step, so [pending] can never dip to 0 with work
           still in flight *)
        ignore (Atomic.fetch_and_add pending (!cross - 1))
      in
      (* Claim a batch of shard [s]'s frontier worklist for [slot]. *)
      let expand_from ~abort slot ~leased s =
        let ws = !wl.(s) in
        let len = Array.length ws in
        if Atomic.get wl_cursor.(s) >= len then 0
        else begin
          let c = Atomic.fetch_and_add wl_cursor.(s) steal_batch in
          if c >= len then 0
          else begin
            let hi = min len (c + steal_batch) in
            for x = c to hi - 1 do
              expand_one ~abort slot ~leased ws.(x)
            done;
            hi - c
          end
        end
      in
      let try_steal ~abort slot ~leased =
        let best = ref (-1) and best_rem = ref 0 in
        for s = 0 to d - 1 do
          if not (List.mem s !leased) then begin
            let rem = Array.length !wl.(s) - Atomic.get wl_cursor.(s) in
            if rem > !best_rem then begin
              best := s;
              best_rem := rem
            end
          end
        done;
        !best >= 0
        &&
        let got = expand_from ~abort slot ~leased !best in
        if got > 0 then steals_ctr.(slot) <- steals_ctr.(slot) + 1;
        got > 0
      in
      (* Serve the generation as [slot] until its work is drained or
         [abort] fires: resolve candidates arriving for leased shards,
         expand leased worklists (stealing from the heaviest other shard
         when dry), and poll [claim] for orphaned shard leases while
         there is nothing else to do. [beat] is the supervised crew's
         heartbeat hook; the unsupervised crew passes no-ops for both. *)
      let serve_loop ~abort ~claim ~beat slot leased =
        let idle = ref 0 in
        let running = ref true in
        while !running do
          beat ();
          if abort () then running := false
          else begin
            let did = drain_leased leased in
            let did =
              List.fold_left
                (fun acc s -> expand_from ~abort slot ~leased s > 0 || acc)
                did !leased
            in
            let did =
              did
              ||
              (* leased shards are dry: publish whatever we buffered,
                 then go help the heaviest shard *)
              (flush_all ~abort slot ~leased;
               try_steal ~abort slot ~leased)
            in
            let did = claim () || did in
            if did then idle := 0
            else if Atomic.get pending = 0 then running := false
            else begin
              incr idle;
              (* oversubscribed hosts need a real yield, not just a
                 pause, or a descheduled peer can starve behind us *)
              if !idle land 63 = 0 then Unix.sleepf 0.0001
              else Domain.cpu_relax ()
            end
          end
        done
      in
      let sort_phase me =
        let arr = Array.of_list !(logs.(me)) in
        Array.sort (fun (a, _) (c, _) -> compare (a : int) c) arr;
        sorted_logs.(me) <- arr;
        slot_keys_arr.(me) <- Array.of_list (List.rev !(slot_keys_rev.(me)));
        slot_reps_arr.(me) <- Array.of_list (List.rev !(slot_reps_rev.(me)));
        slot_orbs_arr.(me) <- Array.of_list (List.rev !(slot_orbs_rev.(me)))
      in
      (* Worker 0, alone: d-way merge of the sorted logs in candidate-key
         order — the candidate scan [expand_seq] does, with identical
         budget semantics — building transitions and fresh states as it
         goes. *)
      let merge_and_collect () =
        let nf = Array.length !frontier in
        let gl = !gen_labels in
        let slot_ids = Array.init d (fun o -> Array.make slot_cnt.(o) (-2)) in
        let idx = Array.make d 0 in
        let tr = Array.make nf [] in
        let fresh_rev = ref [] and orb_rev = ref [] in
        let ncand = ref 0 and dups = ref 0 and discovered = ref 0 in
        let cur_i = ref (-1) and buf = ref [] in
        let commit () = if !cur_i >= 0 then tr.(!cur_i) <- List.rev !buf in
        let more = ref true in
        while !more do
          let pick = ref (-1) and pick_ck = ref max_int in
          for o = 0 to d - 1 do
            if idx.(o) < Array.length sorted_logs.(o) then begin
              let ck, _ = sorted_logs.(o).(idx.(o)) in
              if ck < !pick_ck then begin
                pick := o;
                pick_ck := ck
              end
            end
          done;
          if !pick < 0 then more := false
          else begin
            let o = !pick in
            let ckey, target = sorted_logs.(o).(idx.(o)) in
            idx.(o) <- idx.(o) + 1;
            incr ncand;
            let i = ckey / kmax and pos = ckey mod kmax in
            if i <> !cur_i then begin
              commit ();
              cur_i := i;
              buf := []
            end;
            let dst =
              if target >= 0 then begin
                incr dups;
                target
              end
              else begin
                let s = -1 - target in
                let sid = slot_ids.(o).(s) in
                if sid = -2 then
                  if !n_states < max_states then begin
                    let id = !n_states in
                    incr n_states;
                    incr discovered;
                    slot_ids.(o).(s) <- id;
                    Hashtbl.add shard_tbl.(o) slot_keys_arr.(o).(s) id;
                    orbit_sum := !orbit_sum + slot_orbs_arr.(o).(s);
                    fresh_rev := slot_reps_arr.(o).(s) :: !fresh_rev;
                    orb_rev := slot_orbs_arr.(o).(s) :: !orb_rev;
                    id
                  end
                  else begin
                    complete := false;
                    set_stop Checker_stats.Budget;
                    slot_ids.(o).(s) <- -1;
                    -1
                  end
                else if sid >= 0 then begin
                  incr dups;
                  sid
                end
                else begin
                  (* duplicate of a budget-dropped candidate *)
                  complete := false;
                  set_stop Checker_stats.Budget;
                  -1
                end
              end
            in
            if dst >= 0 then buf := { dst; label = gl.(i).(pos) } :: !buf
          end
        done;
        commit ();
        finish_gen ~tr
          ~fresh:(Array.of_list (List.rev !fresh_rev))
          ~orbs:(Array.of_list (List.rev !orb_rev))
          ~ncand:!ncand ~dups:!dups ~discovered:!discovered
      in
      let body me =
        let running = ref true in
        while !running do
          Parallel.Barrier.wait b;
          (* generation inputs published; snapshot the mode into locals
             NOW, then hold a decision barrier. Without it, worker 0 of a
             sequential-mode generation would run the whole generation —
             rewriting [stop]/[seq_gen] at its end — racing the other
             workers' branch reads, so two workers could pick different
             branches (different barrier counts) and wedge the crew. The
             second barrier guarantees every worker has read the decision
             before worker 0 may mutate it again. *)
          let stop_now = !stop and seq_now = !seq_gen in
          Parallel.Barrier.wait b;
          (* decision taken by all workers *)
          if stop_now then running := false
          else if seq_now then begin
            if me = 0 then expand_seq_guarded ()
            (* other workers loop straight to the next start barrier *)
          end
          else begin
            guard (fun () ->
                serve_loop
                  ~abort:(fun () -> !failure <> None)
                  ~claim:(fun () -> false)
                  ~beat:(fun () -> ())
                  me (ref [ me ]));
            Parallel.Barrier.wait b;
            (* all logs complete (or the generation is aborting) *)
            guard (fun () -> sort_phase me);
            Parallel.Barrier.wait b;
            if me = 0 then begin
              (* never merge a partial generation: a dead worker's
                 claimed states are missing from the logs *)
              if !failure = None then guard merge_and_collect;
              if !failure <> None then stop := true
            end
          end
        done
      in
      (* -------- supervised crew (self-healing choreography) -----------
         Coordination runs through {e epochs}: work units claimed by
         compare-and-set from a shared table published as one atomic
         record.

         A wide generation is one attempt whose unit table is the shard
         LEASE table — claiming unit [u] leases shard [u]'s resolution
         structures until the attempt ends, and idle slots keep claiming
         orphaned leases, so a shrunken crew still serves every shard. A
         death mid-attempt aborts it: the dead slot's worklist claims and
         buffered handoffs are unrecoverable, so survivors park, the
         supervisor drains the rings, re-preps the generation and replays
         it from its (unmutated) inputs, and the dead domain respawns with
         bounded, jittered backoff. Durable state — shard tables, ids,
         chunk lists — is only touched by [merge_and_collect] after a
         clean attempt, which is what makes the replay safe and the merged
         result bit-identical. The sort phase that follows is idempotent,
         so it runs as an ordinary epoch: a dead slot's units are simply
         requeued for the survivors.

         A domain that is still alive but stops heartbeating while holding
         work can NOT be requeued safely (it may yet mutate its shard), so
         after an escalating patience budget the whole attempt is
         abandoned with {!Resilience.Stalled}; {!with_recovery} then
         resumes from the last durable snapshot. *)
      let supervised_drive () =
        let cur =
          Atomic.make { ep_id = 0; ep_units = [||]; ep_fn = (fun _ _ -> ()) }
        in
        let quit = Atomic.make false in
        let alive = Array.init d (fun _ -> Atomic.make false) in
        let hb = Array.init d (fun _ -> Atomic.make 0) in
        let abandoned = Array.make d false in
        let doms : unit Domain.t option array = Array.make d None in
        let restart_count = Array.make d 0 in
        let respawn_at = Array.make d infinity in
        let epoch_no = ref 0 in
        (* jitter desynchronizes respawns; the values never influence the
           explored graph, so a fixed seed keeps campaigns replayable *)
        let jrng = Rng.create 0x7E57 in
        let max_domain_restarts = 3 in
        let patience_base = 0.1 in
        let max_patience_levels = 3 in
        let work ep slot =
          let us = ep.ep_units in
          for u = 0 to Array.length us - 1 do
            if
              Atomic.get us.(u) = 0
              && Atomic.compare_and_set us.(u) 0 (slot + 1)
            then begin
              Atomic.incr hb.(slot);
              Resilience.worker_tick ~domain:slot;
              ep.ep_fn slot u;
              Atomic.set us.(u) (-1)
            end
          done
        in
        let worker slot () =
          (try
             let idle = ref 0 in
             while not (Atomic.get quit) do
               let ep = Atomic.get cur in
               if Array.length ep.ep_units > 0 then work ep slot;
               incr idle;
               (* heartbeat + fault poll while idle, so a kill aimed at a
                  domain between epochs still fires *)
               if !idle land 1023 = 0 then begin
                 Atomic.incr hb.(slot);
                 Resilience.worker_tick ~domain:slot
               end;
               Domain.cpu_relax ()
             done
           with _ -> ());
          Atomic.set alive.(slot) false
        in
        let spawn slot =
          (match doms.(slot) with
          | Some dh -> Domain.join dh (* already exited: reap promptly *)
          | None -> ());
          Atomic.set alive.(slot) true;
          doms.(slot) <- Some (Domain.spawn (worker slot))
        in
        let shutdown () =
          Atomic.set quit true;
          Array.iteri
            (fun w dh ->
              match dh with
              | Some dh when not abandoned.(w) ->
                Domain.join dh;
                doms.(w) <- None
              | _ ->
                (* an abandoned (wedged) domain is leaked on purpose:
                   joining it would wedge the supervisor too; if it ever
                   wakes it sees [quit] and exits on its own *)
                ())
            doms
        in
        (* One supervision pass over the crew, shared by every kind of
           epoch. [us] is the unit (or lease) table — a cell at [w + 1]
           means slot [w] holds work. Death is reported through
           [on_death] (the sort epoch requeues the dead slot's units; a
           generation attempt aborts) and the domain respawns
           under bounded, jittered backoff; a live-but-silent holder gets
           the escalating patience treatment and finally abandonment. *)
        let monitor ~us ~last_hb ~t_mark ~level ~on_death =
          let t = Checker_stats.now () in
          for w = 1 to d - 1 do
            if doms.(w) <> None && not abandoned.(w) then
              if not (Atomic.get alive.(w)) then begin
                on_death w;
                if respawn_at.(w) = infinity then begin
                  if restart_count.(w) < max_domain_restarts then begin
                    let backoff =
                      0.001
                      *. float_of_int (1 lsl restart_count.(w))
                      *. (1. +. Rng.float jrng)
                    in
                    restart_count.(w) <- restart_count.(w) + 1;
                    incr restarts_total;
                    respawn_at.(w) <- t +. backoff
                  end
                  else begin
                    (* restart budget exhausted: reap the corpse and
                       carry on with a smaller crew *)
                    (match doms.(w) with
                    | Some dh -> Domain.join dh
                    | None -> ());
                    doms.(w) <- None
                  end
                end
                else if t >= respawn_at.(w) then begin
                  respawn_at.(w) <- infinity;
                  spawn w;
                  (* a fresh worker starts with a fresh stall clock *)
                  last_hb.(w) <- Atomic.get hb.(w);
                  t_mark.(w) <- t;
                  level.(w) <- 0
                end
              end
              else begin
                let beat = Atomic.get hb.(w) in
                if beat <> last_hb.(w) then begin
                  last_hb.(w) <- beat;
                  t_mark.(w) <- t;
                  level.(w) <- 0
                end
                else if Array.exists (fun u -> Atomic.get u = w + 1) us
                then begin
                  let threshold =
                    patience_base *. float_of_int (1 lsl level.(w))
                  in
                  if t -. t_mark.(w) > threshold then
                    if level.(w) < max_patience_levels then begin
                      level.(w) <- level.(w) + 1;
                      t_mark.(w) <- t
                    end
                    else begin
                      abandoned.(w) <- true;
                      raise
                        (Resilience.Stalled
                           {
                             domain = w;
                             waited_s =
                               patience_base
                               *. float_of_int
                                    ((1 lsl (max_patience_levels + 1)) - 1);
                           })
                    end
                end
              end
          done
        in
        (* An epoch of idempotent units (the sort phase): a dead slot's
           claimed units go back to the pool for the survivors. *)
        let run_epoch ~n_units fn =
          incr epoch_no;
          let ep =
            {
              ep_id = !epoch_no;
              ep_units = Array.init n_units (fun _ -> Atomic.make 0);
              ep_fn = fn;
            }
          in
          Atomic.set cur ep;
          let us = ep.ep_units in
          let all_done () = Array.for_all (fun u -> Atomic.get u = -1) us in
          let last_hb = Array.map Atomic.get hb in
          let t_mark = Array.make d (Checker_stats.now ()) in
          let level = Array.make d 0 in
          let spins = ref 0 in
          (* the supervisor is also slot 0 of the crew *)
          work ep 0;
          while not (all_done ()) do
            (* requeued units are claimable again: take what is left *)
            work ep 0;
            if not (all_done ()) then begin
              incr spins;
              if !spins land 255 = 0 then Unix.sleepf 0.0002
              else Domain.cpu_relax ();
              monitor ~us ~last_hb ~t_mark ~level ~on_death:(fun w ->
                  (* dead: its claimed units go back to the pool *)
                  Array.iter
                    (fun u -> ignore (Atomic.compare_and_set u (w + 1) 0))
                    us)
            end
          done
        in
        (* ---- one supervised generation ---------------------------------
           The epoch's unit table doubles as the shard lease table:
           claiming unit [u] (by the very CAS that claims epoch work)
           leases shard [u] to the claiming slot until the attempt ends.
           A clean attempt drains [pending] to zero exactly like the
           unsupervised crew; a death mid-attempt aborts and replays the
           attempt from its unmutated inputs (see the section comment). *)
        let run_sharded_gen () =
          let attempts = ref 0 in
          let again = ref true in
          while !again do
            again := false;
            incr attempts;
            let failed = Atomic.make false in
            let death = ref None in
            incr epoch_no;
            let units = Array.init d (fun _ -> Atomic.make 0) in
            let claim_for slot leased () =
              let got = ref false in
              for u = 0 to d - 1 do
                if
                  Atomic.get units.(u) = 0
                  && Atomic.compare_and_set units.(u) 0 (slot + 1)
                then begin
                  leased := u :: !leased;
                  got := true
                end
              done;
              !got
            in
            let last_hb = Array.map Atomic.get hb in
            let t_mark = Array.make d (Checker_stats.now ()) in
            let level = Array.make d 0 in
            let ticks = ref 0 in
            (* rate-limited, and woven into the supervisor's [abort]
               probe below so supervision keeps running even while the
               supervisor is blocked pushing to a dead consumer's ring *)
            let monitor0 () =
              incr ticks;
              if !ticks land 31 = 0 then
                monitor ~us:units ~last_hb ~t_mark ~level ~on_death:(fun w ->
                    if Atomic.compare_and_set failed false true then
                      death := Some (Resilience.Killed { domain = w }))
            in
            let serve slot leased =
              let abort =
                if slot = 0 then fun () ->
                  monitor0 ();
                  Atomic.get failed
                else fun () -> Atomic.get failed
              in
              serve_loop ~abort ~claim:(claim_for slot leased)
                ~beat:(fun () -> Atomic.incr hb.(slot))
                slot leased;
              (* release every lease we hold — leases claimed mid-attempt
                 would otherwise read as held forever *)
              List.iter (fun u -> Atomic.set units.(u) (-1)) !leased
            in
            let ep =
              {
                ep_id = !epoch_no;
                ep_units = units;
                ep_fn = (fun slot u -> serve slot (ref [ u ]));
              }
            in
            Atomic.set cur ep;
            let leased0 = ref [] in
            ignore (claim_for 0 leased0 ());
            serve 0 leased0;
            (* Fence, then settle. The fence makes any late-waking
               participant exit before touching shared state — without
               it a straggler could still be resolving while the
               supervisor sorts, or while the next generation is being
               prepped. Settling waits out units held by live slots,
               absorbs unclaimed ones, and treats units held by the dead
               as inert (a death AFTER the work drained does not abort:
               the dying slot's writes are published by its last
               [pending] decrement and its alive flag). *)
            Atomic.set failed true;
            let settled = ref false in
            while not !settled do
              settled := true;
              Array.iter
                (fun u ->
                  match Atomic.get u with
                  | -1 -> ()
                  | 0 ->
                    if not (Atomic.compare_and_set u 0 (-1)) then
                      settled := false
                  | v ->
                    let w = v - 1 in
                    if w > 0 && Atomic.get alive.(w) && not abandoned.(w)
                    then settled := false)
                units;
              if not !settled then begin
                Domain.cpu_relax ();
                monitor0 ()
              end
            done;
            match !death with
            | Some e ->
              (* Replay the attempt. Each retry needs a fresh death and
                 deaths are bounded by the restart budgets, so this
                 terminates under the injected model; the cap is a
                 backstop against a crash loop outside it. *)
              if !attempts > 1 + (d * (max_domain_restarts + 1)) then
                raise e;
              Array.iter
                (Array.iter (fun r ->
                     while Parallel.Spsc.try_pop r <> None do () done))
                rings;
              Array.iter (fun row -> Array.fill row 0 d 0) out_len;
              prep_parallel_gen !frontier;
              again := true
            | None -> ()
          done;
          (* logs complete. The sort is idempotent, so it runs as an
             ordinary requeue-on-death epoch; the merge replays the
             sequential id scan on this thread, as always. *)
          run_epoch ~n_units:d (fun _ s -> sort_phase s);
          merge_and_collect ()
        in
        (* warm-up, as in the unsupervised crew; exceptions (a kill aimed
           at domain 0, an injected allocation failure) propagate to the
           outer guard *)
        while (not !stop) && !seq_gen do
          expand_seq ()
        done;
        if not !stop then begin
          if !cutover = None then cutover := Some !depth;
          for w = 1 to d - 1 do
            spawn w
          done;
          Fun.protect ~finally:shutdown (fun () ->
              while not !stop do
                if !seq_gen then expand_seq () else run_sharded_gen ()
              done)
        end
      in
      (* A snapshot of a finished exploration resumes to an empty
         frontier: nothing to do, return the restored graph as-is. *)
      if Array.length !frontier = 0 then stop := true;
      if d = 1 then
        while not !stop do
          expand_seq_guarded ()
        done
      else if supervise then guard supervised_drive
      else begin
        (* warm-up: no domains, no barriers, until the frontier is wide
           enough — or exploration finishes first *)
        while (not !stop) && !seq_gen do
          expand_seq_guarded ()
        done;
        if not !stop then begin
          (* a resumed run keeps the original run's recorded cutover *)
          if !cutover = None then cutover := Some !depth;
          let workers =
            Array.init (d - 1) (fun i -> Domain.spawn (fun () -> body (i + 1)))
          in
          body 0;
          Array.iter Domain.join workers
        end
      end;
      (* Build the result from a boundary image. When the boundary has
         unexpanded frontier states (stopped by a signal, or degraded out
         of an [Out_of_memory]), their transition lists are empty in the
         returned graph — the snapshot, not this graph, is the resume
         artifact. *)
      let result_of bd ~complete =
        let states = Array.concat (List.rev bd.b_states) in
        let orbits = Array.concat (List.rev bd.b_orbits) in
        let expanded = Array.concat (List.rev bd.b_trans) in
        assert (Array.length states = bd.b_n_states);
        assert (Array.length orbits = bd.b_n_states);
        assert (Array.length expanded = bd.b_n_expanded);
        let succs =
          if bd.b_n_expanded = bd.b_n_states then expanded
          else begin
            assert (not complete);
            Array.init bd.b_n_states (fun i ->
                if i < bd.b_n_expanded then expanded.(i) else [])
          end
        in
        let n_transitions =
          Array.fold_left (fun acc ts -> acc + List.length ts) 0 succs
        in
        orbit_sum := bd.b_orbit_sum;
        cutover := bd.b_cutover;
        let g = { cfg; states; orbits; succs; complete } in
        let stats =
          stats_base ~n_states:bd.b_n_states ~n_transitions
            ~max_depth:bd.b_depth ~max_frontier:bd.b_max_frontier
            ~candidates:bd.b_cand ~dedup_hits:bd.b_dups
            ~shard_load:(Array.map Hashtbl.length shard_tbl)
            ~complete ~depths:(List.rev bd.b_depths_rev)
        in
        (g, stats)
      in
      match !failure with
      | Some ((Out_of_memory | Resilience.Stalled _) as e)
        when snapshot_to <> None ->
        (* last-ditch degradation: flush the newest exact boundary and
           hand back a truncated result instead of dying with nothing *)
        set_stop
          (match e with
          | Out_of_memory -> Checker_stats.Oom
          | _ -> Checker_stats.Fault);
        (match snapshot_to with
        | Some path -> (
          try write_boundary path !last_boundary with Snapshot.Error _ -> ())
        | None -> ());
        result_of !last_boundary ~complete:false
      | Some e -> raise e
      | None ->
        (* a truncated (budget or signal) run leaves its newest exact
           boundary on disk so it can be resumed later *)
        (match snapshot_to with
        | Some path when not !complete -> write_boundary path !last_boundary
        | _ -> ());
        result_of (capture_boundary ()) ~complete:!complete
    end

  let default_handoff_batch = 64
  let default_steal_batch = 32

  let explore_with_stats ?(max_states = 2_000_000) ?(reduction = Full)
      ?snapshot_every ?snapshot_to ?resume_from ?mem_soft_limit_mb ?deadline_s
      ?(salvage = false) cfg =
    explore_impl ~max_states ~domains:1 ~par_threshold:0 ~reduction
      ~handoff_batch:default_handoff_batch ~steal_batch:default_steal_batch
      ~snapshot_every ~snapshot_to ~resume_from ~mem_soft_limit_mb ~deadline_s
      ~salvage ~supervise:false cfg

  let default_par_threshold ~domains = 1024 * (domains - 1)

  let explore_par ?(max_states = 2_000_000) ?domains ?par_threshold
      ?(reduction = Full) ?(handoff_batch = default_handoff_batch)
      ?(steal_batch = default_steal_batch) ?snapshot_every ?snapshot_to
      ?resume_from ?mem_soft_limit_mb ?deadline_s ?(salvage = false) ?supervise
      cfg =
    let domains =
      match domains with
      | Some d -> max 1 d (* explicit override, even past the host count *)
      | None -> Domain.recommended_domain_count ()
    in
    let par_threshold =
      match par_threshold with
      | Some t -> max 0 t
      | None -> default_par_threshold ~domains
    in
    let supervise =
      match supervise with
      | Some s -> s
      | None ->
        (* domain faults armed means the caller wants them absorbed:
           default the self-healing crew on so the campaign exercises it *)
        Resilience.has_domain_faults ()
    in
    explore_impl ~max_states ~domains ~par_threshold ~reduction
      ~handoff_batch ~steal_batch ~snapshot_every ~snapshot_to ~resume_from
      ~mem_soft_limit_mb ~deadline_s ~salvage ~supervise cfg

  let explore ?(max_states = 2_000_000) ?(reduction = Full) ?snapshot_every
      ?snapshot_to ?resume_from ?deadline_s ?(salvage = false) cfg =
    match (snapshot_every, snapshot_to, resume_from, deadline_s) with
    | None, None, None, None -> explore_basic ~max_states ~reduction cfg
    | _ ->
      (* Checkpointing lives in the generation-boundary machinery; its
         single-domain graph is bit-identical to the plain loop (the test
         suite cross-checks this on every in-tree protocol). *)
      fst
        (explore_impl ~max_states ~domains:1 ~par_threshold:0 ~reduction
           ~handoff_batch:default_handoff_batch
           ~steal_batch:default_steal_batch ~snapshot_every ~snapshot_to
           ~resume_from ~mem_soft_limit_mb:None ~deadline_s ~salvage
           ~supervise:false cfg)

  (* ---------------------------------------------------------------- *)
  (* external-memory exploration (disk-backed visited set)             *)
  (* ---------------------------------------------------------------- *)

  (* Checkpoint payload of the external-memory explorer. Stats-only — no
     transition lists: the resume point is the pending frontier plus the
     visited set, which lives partly here ([xp_hot]) and partly in the
     immutable run files the manifest names. *)
  type external_payload = {
    xp_frontier : state array;
    xp_depth : int;
    xp_depths_rev : Checker_stats.depth_sample list;
    xp_n_states : int;
    xp_n_transitions : int;
    xp_candidates : int;
    xp_dedup : int;
    xp_max_frontier : int;
    xp_orbit_sum : int;
    xp_elapsed : float;
    xp_codec : Cd.dump;
    xp_hot : string array;
    xp_manifest : Disk_visited.manifest;
  }

  (* Distinct from the in-RAM fingerprint: an external checkpoint holds no
     transition lists and references run files, so the two snapshot kinds
     must never accept each other. *)
  let external_fingerprint ~reduction cfg =
    let digest, descr = fingerprint ~reduction cfg in
    ( Digest.string (Marshal.to_string (digest, "external") []),
      descr ^ " engine=external" )

  let explore_external ?(max_states = 2_000_000) ?(reduction = Full)
      ?snapshot_every ?snapshot_to ?resume_from ?mem_soft_limit_mb
      ?(hot_cap = 1 lsl 20) ?disk_quota_bytes ?deadline_s ?(salvage = false)
      ?(wide = false) ~dir cfg =
    let n_procs = Array.length cfg.ids in
    let n_registers = Naming.size cfg.namings.(0) in
    let digest, descr = external_fingerprint ~reduction cfg in
    (* A checkpoint is only usable if every run file its manifest lists
       still validates in full; under [~salvage] walk the intact chunks
       newest first until one's manifest checks out. *)
    let restore_checkpoint path =
      if salvage then begin
        let meta, chunks, salv = Snapshot.read_chunks ~path in
        Snapshot.check_fingerprint ~path meta ~fingerprint:digest ~descr;
        (match salv with
        | Some s ->
          Format.eprintf "snapshot salvage: %s: %s; rolled back to chunk %d@."
            path s.Snapshot.detail s.Snapshot.kept_chunks
        | None -> ());
        let rec pick = function
          | [] ->
            (* every intact chunk names a run set that no longer
               validates (e.g. a short write silently damaged a spilled
               run every surviving manifest lists). Starting over is
               slower but never wrong — and [Disk_visited.create] below
               sweeps the damaged runs away. *)
            Format.eprintf
              "snapshot salvage: no checkpoint of %s has a valid run \
               set; restarting from scratch@."
              path;
            None
          | payload :: older -> (
            let sp : external_payload = Marshal.from_string payload 0 in
            match
              Disk_visited.restore ?quota_bytes:disk_quota_bytes ~dir
                ~fingerprint:digest ~descr sp.xp_manifest
            with
            | dv -> Some (sp, dv)
            | exception Snapshot.Error e ->
              Format.eprintf
                "snapshot salvage: %s; falling back to an older checkpoint@."
                (Snapshot.error_message e);
              pick older)
        in
        pick chunks
      end
      else begin
        let meta, payload = Snapshot.read ~path in
        Snapshot.check_fingerprint ~path meta ~fingerprint:digest ~descr;
        let sp : external_payload = Marshal.from_string payload 0 in
        Some
          ( sp,
            Disk_visited.restore ?quota_bytes:disk_quota_bytes ~dir
              ~fingerprint:digest ~descr sp.xp_manifest )
      end
    in
    let resumed = Option.bind resume_from restore_checkpoint in
    let stopped = ref Checker_stats.Completed in
    let set_stop r =
      if !stopped = Checker_stats.Completed then stopped := r
    in
    let t0 =
      Checker_stats.now ()
      -. (match resumed with Some (sp, _) -> sp.xp_elapsed | None -> 0.)
    in
    let deadline_at =
      Option.map (fun s -> Checker_stats.now () +. s) deadline_s
    in
    let codec =
      match resumed with
      | Some (sp, _) -> Cd.of_dump sp.xp_codec
      | None -> Cd.create ~wide ()
    in
    let key_len = Cd.width codec * (n_registers + n_procs) in
    let dv =
      match resumed with
      | Some (_, dv) -> dv
      | None -> Disk_visited.create ?quota_bytes:disk_quota_bytes ~dir ~key_len ()
    in
    let syms = syms_of ~reduction cfg in
    let group_order = max 1 (List.length syms) in
    let canon = reduction = Canon in
    let degraded = canon && Cn.degraded ~n:n_procs in
    let cc = make_canon_cache codec syms (initial cfg) in
    let sig_pruned () =
      match cc.inc with Some i -> Cn.pruned i | None -> 0
    in
    (* Visited = hot ∪ runs, disjoint: a key is interned only after both
       proved it absent, and a spill MOVES hot to a run. *)
    let hot : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
    let n_states = ref 0 in
    let n_transitions = ref 0 in
    let depth = ref 0 in
    let depths_rev : Checker_stats.depth_sample list ref = ref [] in
    let total_cand = ref 1 in
    let total_dups = ref 0 in
    let max_frontier = ref 1 in
    let orbit_sum = ref 0 in
    let frontier = ref ([||] : state array) in
    let complete = ref true in
    (match resumed with
    | Some (sp, _) ->
      Array.iter (fun k -> Hashtbl.replace hot k ()) sp.xp_hot;
      n_states := sp.xp_n_states;
      n_transitions := sp.xp_n_transitions;
      depth := sp.xp_depth;
      depths_rev := sp.xp_depths_rev;
      total_cand := sp.xp_candidates;
      total_dups := sp.xp_dedup;
      max_frontier := sp.xp_max_frontier;
      orbit_sum := sp.xp_orbit_sum;
      frontier := sp.xp_frontier
    | None ->
      if max_states >= 1 then begin
        let rep0, key0, orbit0 = canonize_cached cc codec (initial cfg) in
        Hashtbl.replace hot key0 ();
        n_states := 1;
        orbit_sum := orbit0;
        frontier := [| rep0 |]
      end
      else begin
        complete := false;
        set_stop Checker_stats.Budget;
        total_cand := 0;
        max_frontier := 0
      end);
    let capture ~complete =
      {
        Checker_stats.protocol = P.name;
        n_procs;
        n_registers;
        domains = 1;
        n_states = !n_states;
        n_transitions = !n_transitions;
        max_depth = !depth;
        max_frontier = !max_frontier;
        candidates = !total_cand;
        dedup_hits = !total_dups;
        shard_load = [| !n_states |];
        elapsed_s = Checker_stats.now () -. t0;
        complete;
        stop = (if complete then Checker_stats.Completed else !stopped);
        restarts = 0;
        recoveries = 0;
        canon;
        degraded;
        group_order;
        orbit_sum = !orbit_sum;
        sig_pruned = sig_pruned ();
        canon_hits = cc.hits;
        cutover = None;
        steals = 0;
        handoffs = 0;
        spilled_runs = Disk_visited.n_runs dv;
        disk_probes = Disk_visited.n_probes dv;
        depths = List.rev !depths_rev;
      }
    in
    let hot_keys () =
      let a = Array.make (Hashtbl.length hot) "" in
      let i = ref 0 in
      Hashtbl.iter
        (fun k () ->
          a.(!i) <- k;
          incr i)
        hot;
      a
    in
    let last_snapshot_states = ref !n_states in
    let snapshot_gap =
      match snapshot_every with
      | Some e -> max 1 e
      | None -> default_snapshot_every
    in
    let write_checkpoint path =
      let payload =
        {
          xp_frontier = !frontier;
          xp_depth = !depth;
          xp_depths_rev = !depths_rev;
          xp_n_states = !n_states;
          xp_n_transitions = !n_transitions;
          xp_candidates = !total_cand;
          xp_dedup = !total_dups;
          xp_max_frontier = !max_frontier;
          xp_orbit_sum = !orbit_sum;
          xp_elapsed = Checker_stats.now () -. t0;
          xp_codec = Cd.dump codec;
          xp_hot = hot_keys ();
          xp_manifest = Disk_visited.manifest dv;
        }
      in
      Snapshot.append ~path ~fingerprint:digest ~descr
        (Marshal.to_string payload []);
      last_snapshot_states := !n_states
    in
    let soft_limit_bytes =
      Option.map (fun mb -> mb * 1024 * 1024) mem_soft_limit_mb
    in
    let heap_bytes () =
      let s = Gc.quick_stat () in
      s.Gc.heap_words * (Sys.word_size / 8)
    in
    let hot_cap = max 1 hot_cap in
    (* At the watermark, MOVE the hot table to disk as one sorted
       immutable run; spill-then-checkpoint ordering keeps every snapshot
       chunk's manifest/hot/frontier mutually consistent. A spill that
       would breach the byte quota is refused BEFORE any byte is written
       ([`Quota_hit]): the caller cuts the run at this exact boundary
       instead of corrupting or over-filling the run set. *)
    let maybe_spill () =
      let pressured =
        match soft_limit_bytes with
        | Some limit -> heap_bytes () > limit
        | None -> false
      in
      if Hashtbl.length hot > 0 && (Hashtbl.length hot >= hot_cap || pressured)
      then
        if
          Disk_visited.would_exceed_quota dv
            ~adding:(Hashtbl.length hot * key_len)
        then `Quota_hit
        else begin
          let keys = hot_keys () in
          Array.sort compare keys;
          Disk_visited.spill dv ~fingerprint:digest ~descr keys;
          Hashtbl.reset hot;
          if pressured then Gc.compact ();
          `Spilled
        end
      else `No_spill
    in
    let stop = ref false in
    (* Scalars of the newest exact boundary, for the Out_of_memory
       degradation path (mid-generation state is not exact). *)
    let last_exact = ref (capture ~complete:!complete) in
    if Array.length !frontier = 0 then stop := true;
    let run_generation () =
      let fr = !frontier in
      let nf = Array.length fr in
      (* expand + canonize every candidate, in frontier order *)
      let cand_rev = ref [] in
      let ncand = ref 0 in
      for i = 0 to nf - 1 do
        (* fault seam, as in the in-RAM engines *)
        Resilience.worker_tick ~domain:0;
        List.iter
          (fun (_, st') ->
            let rep, key, orbit = canonize_cached cc codec st' in
            cand_rev := (key, rep, orbit) :: !cand_rev;
            incr ncand)
          (successors cfg fr.(i))
      done;
      let cands = Array.of_list (List.rev !cand_rev) in
      cand_rev := [];
      let ncand = !ncand in
      (* classify: cls.(k) = -1 known in hot; -2 - k0 in-batch duplicate
         of candidate k0; k itself = unknown first occurrence *)
      let cls = Array.make ncand 0 in
      let scratch : (string, int) Hashtbl.t = Hashtbl.create 256 in
      let unknown_rev = ref [] in
      Array.iteri
        (fun k (key, _, _) ->
          if Hashtbl.mem hot key then cls.(k) <- -1
          else
            match Hashtbl.find_opt scratch key with
            | Some k0 -> cls.(k) <- -2 - k0
            | None ->
              Hashtbl.add scratch key k;
              cls.(k) <- k;
              unknown_rev := key :: !unknown_rev)
        cands;
      (* the budget may trip inside this generation: flush the (still
         exact) pre-generation boundary first, so a budget-truncated run
         resumes bit-identically from here *)
      (match snapshot_to with
      | Some path when !complete && !n_states + ncand > max_states ->
        write_checkpoint path
      | _ -> ());
      (* delayed duplicate detection: sort the unknowns once, stream every
         run once *)
      let unknown = Array.of_list (List.rev !unknown_rev) in
      Array.sort compare unknown;
      let on_disk : (string, unit) Hashtbl.t =
        Hashtbl.create (max 16 (Array.length unknown))
      in
      if Array.length unknown > 0 then begin
        let found = Disk_visited.probe dv unknown in
        Array.iteri
          (fun i k -> if found.(i) then Hashtbl.replace on_disk k ())
          unknown
      end;
      (* the id scan, in candidate order — identical budget semantics to
         the in-RAM engines. fate of a first occurrence: 1 kept (known on
         disk, or interned), 0 dropped by the budget. *)
      let fresh_rev = ref [] in
      let discovered = ref 0 and dups = ref 0 and kept = ref 0 in
      let fate = Array.make ncand (-1) in
      Array.iteri
        (fun k (key, rep, orbit) ->
          let c = cls.(k) in
          if c = -1 then begin
            incr dups;
            incr kept
          end
          else if c >= 0 then begin
            if Hashtbl.mem on_disk key then begin
              (* a known state; deliberately NOT cached back into hot —
                 that would break hot/runs disjointness. Recurring keys
                 are re-probed, the classic DDD trade. *)
              incr dups;
              incr kept;
              fate.(k) <- 1
            end
            else if !n_states < max_states then begin
              incr n_states;
              incr discovered;
              incr kept;
              Hashtbl.replace hot key ();
              orbit_sum := !orbit_sum + orbit;
              fresh_rev := rep :: !fresh_rev;
              fate.(k) <- 1
            end
            else begin
              complete := false;
              set_stop Checker_stats.Budget;
              fate.(k) <- 0
            end
          end
          else begin
            let k0 = -2 - c in
            if fate.(k0) = 1 then begin
              incr dups;
              incr kept
            end
            else begin
              (* duplicate of a budget-dropped candidate *)
              complete := false;
              set_stop Checker_stats.Budget
            end
          end)
        cands;
      (* fault seam: an injected allocation failure fires here, before the
         generation is committed *)
      Resilience.boundary_tick ();
      depths_rev :=
        {
          Checker_stats.depth = !depth;
          frontier = nf;
          candidates = ncand;
          discovered = !discovered;
          duplicates = !dups;
        }
        :: !depths_rev;
      total_cand := !total_cand + ncand;
      total_dups := !total_dups + !dups;
      n_transitions := !n_transitions + !kept;
      let next = Array.of_list (List.rev !fresh_rev) in
      let nn = Array.length next in
      if nn = 0 then stop := true
      else begin
        if nn > !max_frontier then max_frontier := nn;
        frontier := next;
        incr depth;
        let outcome = maybe_spill () in
        (match outcome with
        | `Quota_hit ->
          (* graceful disk-full degradation: this boundary is still
             exact (the hot table simply was not moved to disk), so
             flush it and stop with an honest reason — the run resumes
             under a raised quota from exactly here *)
          complete := false;
          set_stop Checker_stats.Disk_full;
          stop := true;
          (match snapshot_to with
          | Some path -> write_checkpoint path
          | None -> ())
        | `Spilled | `No_spill -> ());
        if !complete then begin
          last_exact := capture ~complete:true;
          match snapshot_to with
          | Some path
            when outcome = `Spilled
                 || !n_states - !last_snapshot_states >= snapshot_gap ->
            write_checkpoint path
          | _ -> ()
        end;
        if Snapshot.stop_requested () then begin
          complete := false;
          set_stop Checker_stats.Interrupted;
          stop := true
        end;
        match deadline_at with
        | Some td when Checker_stats.now () >= td ->
          complete := false;
          set_stop Checker_stats.Deadline;
          stop := true
        | _ -> ()
      end
    in
    try
      while not !stop do
        run_generation ()
      done;
      (* a signal- or deadline-stopped run ends at an exact boundary:
         flush it so the run can be picked up later. (A budget-truncated
         run already flushed its pre-trip boundary above.) *)
      (match snapshot_to with
      | Some path
        when (not !complete)
             && (!stopped = Checker_stats.Interrupted
                || !stopped = Checker_stats.Deadline) ->
        write_checkpoint path
      | _ -> ());
      capture ~complete:!complete
    with Out_of_memory when snapshot_to <> None ->
      (* disk-bounded degradation: the last periodic checkpoint is the
         resume point — writing a new one here would both marshal a large
         payload under memory pressure and capture inexact mid-generation
         state *)
      set_stop Checker_stats.Oom;
      {
        !last_exact with
        Checker_stats.elapsed_s = Checker_stats.now () -. t0;
        complete = false;
        stop = Checker_stats.Oom;
        spilled_runs = Disk_visited.n_runs dv;
        disk_probes = Disk_visited.n_probes dv;
      }

  (* ---------------------------------------------------------------- *)
  (* self-healing driver                                               *)
  (* ---------------------------------------------------------------- *)

  let with_recovery ?(max_retries = 3) ?resume_from ~snapshot_to run =
    let transient = function
      | Out_of_memory | Resilience.Killed _ | Resilience.Stalled _ -> true
      (* injected disk faults fire at most once, so retrying through an
         EIO/ENOSPC/failed-fsync converges just like a kill does *)
      | Resilience.Io_fault _ -> true
      | Snapshot.Error (Snapshot.Corrupt _) -> true
      | _ -> false
    in
    (* Only hand the next attempt a resume point that will actually load;
       with no usable snapshot on disk the retry restarts from scratch —
       slower, never wrong. *)
    let usable_snapshot () =
      match Snapshot.read_salvaged ~path:snapshot_to with
      | _ -> Some snapshot_to
      | exception _ -> None
    in
    (* [attempt] is ONE counter over every retry, whatever mix of fault
       kinds forced them — an alternating kill/stall/EIO plan spends the
       same bounded budget a single repeated fault would. The count is
       stamped into the returned statistics as [recoveries]. *)
    let rec go attempt resume =
      match run ~resume_from:resume ~snapshot_to with
      | (_, stats)
        when (not stats.Checker_stats.complete)
             && (stats.Checker_stats.stop = Checker_stats.Oom
                || stats.Checker_stats.stop = Checker_stats.Fault)
             && attempt < max_retries ->
        (* the explorer degraded out of an infrastructure failure after
           flushing its newest boundary: pick it up and push on *)
        go (attempt + 1) (usable_snapshot ())
      | r, stats -> (r, { stats with Checker_stats.recoveries = attempt })
      | exception e when transient e && attempt < max_retries ->
        go (attempt + 1) (usable_snapshot ())
    in
    go 0 resume_from

  let solo_run cfg st ~proc ~max_steps =
    let rec go st steps =
      match P.status st.locals.(proc) with
      | Protocol.Decided v -> `Decided v
      | _ ->
        if steps >= max_steps then `Out_of_steps
        else
          let n = Array.length st.locals in
          let m = Array.length st.mem in
          match P.step ~n ~m ~id:cfg.ids.(proc) st.locals.(proc) with
          | Protocol.Coin _ -> `Coin
          | _ ->
            (match step_states cfg st proc with
            | [ st' ] -> go st' (steps + 1)
            | _ -> assert false)
    in
    go st 0

  (* Memo entries record EXACT distances along a solo run, so a hit
     reproduces precisely what the unmemoized walk would have returned
     at any starting depth:
       MDec (s, v)   the run decides v after exactly s further steps
       MCoin s       the first coin flip is exactly s further steps away
       MNoDec s      s further steps were once walked with no decision
                     and no coin (a bound cut the witness off there)
     MDec/MCoin are total information and never change; MNoDec is a lower
     bound and only ever grows. *)
  type solo_memo = MDec of int * P.output | MCoin of int | MNoDec of int

  let check_obstruction_freedom ?bound ?(memo = true) g =
    let n = Array.length g.cfg.ids in
    let m = Naming.size g.cfg.namings.(0) in
    let bound =
      match bound with Some b -> b | None -> 4 * m * (n + 2) * (n + 2)
    in
    let solo =
      if not memo then fun st proc -> solo_run g.cfg st ~proc ~max_steps:bound
      else begin
        let codec = Cd.create () in
        let tbl : (string, solo_memo) Hashtbl.t = Hashtbl.create 4096 in
        let store key e =
          match (Hashtbl.find_opt tbl key, e) with
          | Some (MDec _ | MCoin _), _ -> ()
          | Some (MNoDec s), MNoDec s' when s' <= s -> ()
          | _ -> Hashtbl.replace tbl key e
        in
        let record visited mk = List.iter (fun (key, i) -> store key (mk i)) visited in
        fun st0 proc ->
          let rec go st k visited =
            match P.status st.locals.(proc) with
            | Protocol.Decided v ->
              record visited (fun i -> MDec (k - i, v));
              `Decided v
            | _ -> (
              let key = Cd.encode_solo codec ~proc st.locals.(proc) st.mem in
              match Hashtbl.find_opt tbl key with
              | Some (MDec (s, v)) ->
                record ((key, k) :: visited) (fun i -> MDec (k - i + s, v));
                if k + s <= bound then `Decided v else `Out_of_steps
              | Some (MCoin s) ->
                record ((key, k) :: visited) (fun i -> MCoin (k - i + s));
                if k + s < bound then `Coin else `Out_of_steps
              | Some (MNoDec s) when k + s >= bound ->
                record ((key, k) :: visited) (fun i -> MNoDec (k - i + s));
                `Out_of_steps
              | Some (MNoDec _) | None ->
                let visited = (key, k) :: visited in
                if k >= bound then begin
                  record visited (fun i -> MNoDec (bound - i));
                  `Out_of_steps
                end
                else (
                  match P.step ~n ~m ~id:g.cfg.ids.(proc) st.locals.(proc) with
                  | Protocol.Coin _ ->
                    record visited (fun i -> MCoin (k - i));
                    `Coin
                  | _ -> (
                    match step_states g.cfg st proc with
                    | [ st' ] -> go st' (k + 1) visited
                    | _ -> assert false)))
          in
          go st0 0 []
      end
    in
    let exception Found of int * int in
    try
      Array.iteri
        (fun sid st ->
          Array.iteri
            (fun proc local ->
              if not (Protocol.is_decided (P.status local)) then
                match solo st proc with
                | `Decided _ -> ()
                | `Out_of_steps | `Coin -> raise (Found (sid, proc)))
            st.locals)
        g.states;
      None
    with Found (sid, proc) -> Some (sid, proc)

  let to_flat g =
    {
      Flatgraph.n_procs = Array.length g.cfg.ids;
      statuses =
        Array.map
          (fun st -> Array.map (fun l -> Flatgraph.of_status (P.status l)) st.locals)
          g.states;
      succs =
        Array.map
          (fun ts ->
            List.map
              (fun { dst; label } ->
                {
                  Flatgraph.dst;
                  proc = label.proc;
                  enters_cs = label.enters_cs;
                })
              ts)
          g.succs;
      complete = g.complete;
    }
end
