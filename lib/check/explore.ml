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
     packed keys byte-identical across the resume. *)
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
     parallel explorer reproduces exactly that order by splitting a
     generation into a pure map and an ordered intern.

     Narrow generations (frontier below [par_threshold]) and every
     generation at [domains = 1] run on domain 0 alone, interning each
     candidate as it is produced. Once the frontier first reaches the
     threshold the worker domains spawn — that depth is recorded as the
     [cutover] stat — and each wide generation is cut into chunks. Any
     domain may map a chunk: successors, canonical representatives, keys
     and orbits, work that touches no shared table. Domain 0 interns the
     mapped chunks in frontier order through the same [intern] the
     sequential generation uses, so the ids are the sequential ids by
     construction, on every input and every schedule.

     Supervising a pure chunk means mapping it again: domain 0 maps any
     chunk whose worker died or has held it past [stall_patience_s]
     itself, and respawns dead workers (at most [max_respawns] times
     each, counted in [restarts]) at the next wide generation. *)

  (* One mapped candidate: everything [intern] needs, computed off
     domain 0. *)
  type cand = { c_label : label; c_rep : state; c_key : string; c_orbit : int }

  (* One wide generation, published to the workers as one atomic record.
     Chunk [c] covers frontier indices [c * w_chunk, (c + 1) * w_chunk).
     Claims go through [w_next]; the claimer records itself in
     [w_owner.(c)] and publishes [w_out.(c)] by setting [w_done.(c)].
     [w_interning] is the chunk domain 0 interns next. *)
  type wide = {
    w_frontier : state array;
    w_chunk : int;
    w_next : int Atomic.t;
    w_interning : int Atomic.t;
    w_owner : int Atomic.t array;
    w_done : bool Atomic.t array;
    w_out : cand list array array;
  }

  let stall_patience_s = 0.05
  let max_respawns = 3

  let explore_impl ~max_states ~domains ~par_threshold ~reduction
      ~snapshot_every ~snapshot_to ~resume_from ~mem_soft_limit_mb ~deadline_s
      ~salvage cfg =
    let d = max 1 domains in
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
    (* one reduction context per domain: ctxs are single-threaded, the
       codec behind them is shared (and CAS-safe) *)
    let fresh_canon_cache () = make_canon_cache codec syms (initial cfg) in
    let ccs = Array.init d (fun _ -> fresh_canon_cache ()) in
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
      let table : (string, int) Hashtbl.t = Hashtbl.create 1024 in
      (* Exploration state: fresh, or rebuilt from the snapshot. In a
         snapshot all expanded states form the prefix [0, n_expanded) of
         the id order and the pending frontier is the rest. *)
      let init_states, init_orbits, init_succs =
        match resumed with
        | None -> ([| rep0 |], [| orbit0 |], [||])
        | Some sp -> (sp.sp_states, sp.sp_orbits, sp.sp_succs)
      in
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
      orbit_sum :=
        (match resumed with Some sp -> sp.sp_orbit_sum | None -> orbit0);
      (* (Re)build the intern table. The codec dump keeps re-encoded keys
         consistent with the interrupted run's. States in a snapshot are
         already canonical — no re-canonicalization here. *)
      Array.iteri
        (fun id st -> Hashtbl.add table (Cd.encode codec st.mem st.locals) id)
        init_states;
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
         the fresh states (already in id order) and stash the resume
         boundary. *)
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
        if nn = 0 then stop := true
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
      (* The one id assignment, shared by both kinds of generation. Called
         on the candidates in discovery order; returns the candidate's id,
         or -1 when the budget drops a new state. *)
      let gen_cand = ref 0 and gen_dups = ref 0 in
      let gen_fresh = ref [] and gen_orbs = ref [] in
      let intern rep key orbit =
        incr gen_cand;
        match Hashtbl.find_opt table key with
        | Some id ->
          incr gen_dups;
          id
        | None when !n_states >= max_states ->
          complete := false;
          set_stop Checker_stats.Budget;
          -1
        | None ->
          let id = !n_states in
          incr n_states;
          Hashtbl.add table key id;
          orbit_sum := !orbit_sum + orbit;
          gen_fresh := rep :: !gen_fresh;
          gen_orbs := orbit :: !gen_orbs;
          id
      in
      (* Run one generation: [expand i] must return frontier state [i]'s
         transition list, interning its candidates in successor order;
         it is called for i = 0, 1, ... in turn. *)
      let run_gen expand =
        let n0 = !n_states in
        gen_cand := 0;
        gen_dups := 0;
        gen_fresh := [];
        gen_orbs := [];
        let tr = Array.make (Array.length !frontier) [] in
        for i = 0 to Array.length tr - 1 do
          tr.(i) <- expand i
        done;
        let fresh = Array.of_list (List.rev !gen_fresh) in
        let orbs = Array.of_list (List.rev !gen_orbs) in
        gen_fresh := [];
        gen_orbs := [];
        finish_gen ~tr ~fresh ~orbs ~ncand:!gen_cand ~dups:!gen_dups
          ~discovered:(!n_states - n0)
      in
      let rec intern_succs = function
        | [] -> []
        | (label, st') :: rest ->
          let rep, key, orbit = canonize_cached ccs.(0) codec st' in
          let dst = intern rep key orbit in
          if dst < 0 then intern_succs rest
          else { dst; label } :: intern_succs rest
      in
      let expand_seq () =
        let fr = !frontier in
        run_gen (fun i ->
            (* fault seam: a matured kill/stall for domain 0 fires here *)
            Resilience.worker_tick ~domain:0;
            intern_succs (successors cfg fr.(i)))
      in
      (* ---------------- the crew: map on every domain ----------------- *)
      let map_chunk ~domain w c =
        let cc = ccs.(domain) in
        let lo = c * w.w_chunk in
        let hi = min (Array.length w.w_frontier) (lo + w.w_chunk) in
        Array.init (hi - lo) (fun k ->
            Resilience.worker_tick ~domain;
            List.map
              (fun (c_label, st') ->
                let c_rep, c_key, c_orbit = canonize_cached cc codec st' in
                { c_label; c_rep; c_key; c_orbit })
              (successors cfg w.w_frontier.(lo + k)))
      in
      let rec intern_cands = function
        | [] -> []
        | c :: rest ->
          let dst = intern c.c_rep c.c_key c.c_orbit in
          if dst < 0 then intern_cands rest
          else { dst; label = c.c_label } :: intern_cands rest
      in
      (* Claim the next unclaimed chunk of [w] for [domain] and map it;
         [false] when there is none to claim. Workers stay within [2 * d]
         chunks of domain 0's intern: output that waits longer is
         promoted by the worker's minor collections and is slower for
         domain 0 to read. *)
      let claim_and_map ~domain w =
        let nc = Array.length w.w_done in
        let limit =
          if domain = 0 then nc
          else min nc (Atomic.get w.w_interning + (2 * d))
        in
        Atomic.get w.w_next < limit
        &&
        let c = Atomic.fetch_and_add w.w_next 1 in
        c < nc
        && begin
          Atomic.set w.w_owner.(c) domain;
          w.w_out.(c) <- map_chunk ~domain w c;
          Atomic.set w.w_done.(c) true;
          true
        end
      in
      let current : wide option Atomic.t = Atomic.make None in
      let quit = Atomic.make false in
      let alive = Array.init d (fun _ -> Atomic.make false) in
      let doms : unit Domain.t option array = Array.make d None in
      let respawns = Array.make d 0 in
      (* A worker maps chunks until told to quit. Any exception ends it;
         domain 0 then maps its chunk again, so a deterministic failure
         resurfaces there. Idle workers back off to a short sleep: tests
         run more domains than the host has cores. *)
      let worker w () =
        (try
           let idle = ref 0 in
           while not (Atomic.get quit) do
             let worked =
               match Atomic.get current with
               | Some wd -> claim_and_map ~domain:w wd
               | None -> false
             in
             if worked then idle := 0
             else begin
               incr idle;
               if !idle < 256 then Domain.cpu_relax () else Unix.sleepf 1e-4
             end
           done
         with _ -> ());
        Atomic.set alive.(w) false
      in
      let spawn w =
        ccs.(w) <- fresh_canon_cache ();
        Atomic.set alive.(w) true;
        doms.(w) <- Some (Domain.spawn (worker w))
      in
      let respawn_dead () =
        for w = 1 to d - 1 do
          match doms.(w) with
          | Some dh when not (Atomic.get alive.(w)) ->
            Domain.join dh;
            doms.(w) <- None;
            if respawns.(w) < max_respawns then begin
              respawns.(w) <- respawns.(w) + 1;
              incr restarts_total;
              spawn w
            end
          | _ -> ()
        done
      in
      let shutdown () =
        Atomic.set quit true;
        Array.iteri
          (fun w dh ->
            Option.iter Domain.join dh;
            doms.(w) <- None)
          doms
      in
      (* Domain 0's wait for chunk [c]: map unclaimed chunks meanwhile;
         map [c] itself once its owner has died or held it past the
         patience. *)
      let await w c =
        let since = ref 0. and spins = ref 0 in
        let rec go () =
          if Atomic.get w.w_done.(c) then begin
            let out = w.w_out.(c) in
            w.w_out.(c) <- [||];
            out
          end
          else if claim_and_map ~domain:0 w then go ()
          else begin
            if !since = 0. then since := Checker_stats.now ();
            incr spins;
            let o = Atomic.get w.w_owner.(c) in
            if
              (o > 0 && not (Atomic.get alive.(o)))
              || !spins land 255 = 0
                 && Checker_stats.now () -. !since > stall_patience_s
            then map_chunk ~domain:0 w c
            else begin
              Domain.cpu_relax ();
              go ()
            end
          end
        in
        go ()
      in
      let expand_wide () =
        let fr = !frontier in
        let nf = Array.length fr in
        let chunk = max 1 (min 64 (nf / (4 * d))) in
        let nc = (nf + chunk - 1) / chunk in
        let w =
          {
            w_frontier = fr;
            w_chunk = chunk;
            w_next = Atomic.make 0;
            w_interning = Atomic.make 0;
            w_owner = Array.init nc (fun _ -> Atomic.make (-1));
            w_done = Array.init nc (fun _ -> Atomic.make false);
            w_out = Array.make nc [||];
          }
        in
        Atomic.set current (Some w);
        let out = ref [||] in
        run_gen (fun i ->
            if i mod chunk = 0 then begin
              Atomic.set w.w_interning (i / chunk);
              out := await w (i / chunk)
            end;
            intern_cands !out.(i mod chunk));
        Atomic.set current None
      in
      let crew = ref false in
      let drive () =
        if Array.length !frontier = 0 then stop := true;
        Fun.protect ~finally:shutdown (fun () ->
            while not !stop do
              if d = 1 || Array.length !frontier < par_threshold then
                expand_seq ()
              else begin
                if not !crew then begin
                  crew := true;
                  (* a resumed run keeps the original run's cutover *)
                  if !cutover = None then cutover := Some !depth;
                  for w = 1 to d - 1 do
                    spawn w
                  done
                end
                else respawn_dead ();
                expand_wide ()
              end
            done)
      in
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
        (* states per structural-hash class mod [d]: a pure function of
           the graph, so it survives checkpoint/resume bit for bit *)
        let shard_load = Array.make d 0 in
        if d = 1 then shard_load.(0) <- bd.b_n_states
        else
          Array.iter
            (fun st ->
              let s = Hashtbl.hash st mod d in
              shard_load.(s) <- shard_load.(s) + 1)
            states;
        orbit_sum := bd.b_orbit_sum;
        cutover := bd.b_cutover;
        let g = { cfg; states; orbits; succs; complete } in
        let stats =
          stats_base ~n_states:bd.b_n_states ~n_transitions
            ~max_depth:bd.b_depth ~max_frontier:bd.b_max_frontier
            ~candidates:bd.b_cand ~dedup_hits:bd.b_dups ~shard_load ~complete
            ~depths:(List.rev bd.b_depths_rev)
        in
        (g, stats)
      in
      match drive () with
      | () ->
        (* a truncated (budget or signal) run leaves its newest exact
           boundary on disk so it can be resumed later *)
        (match snapshot_to with
        | Some path when not !complete -> write_boundary path !last_boundary
        | _ -> ());
        result_of (capture_boundary ()) ~complete:!complete
      | exception Out_of_memory when snapshot_to <> None ->
        (* last-ditch degradation: flush the newest exact boundary and
           hand back a truncated result instead of dying with nothing *)
        set_stop Checker_stats.Oom;
        (match snapshot_to with
        | Some path -> (
          try write_boundary path !last_boundary with Snapshot.Error _ -> ())
        | None -> ());
        result_of !last_boundary ~complete:false
    end

  let explore_with_stats ?(max_states = 2_000_000) ?(reduction = Full)
      ?snapshot_every ?snapshot_to ?resume_from ?mem_soft_limit_mb ?deadline_s
      ?(salvage = false) cfg =
    explore_impl ~max_states ~domains:1 ~par_threshold:0 ~reduction
      ~snapshot_every ~snapshot_to ~resume_from ~mem_soft_limit_mb ~deadline_s
      ~salvage cfg

  let default_par_threshold ~domains = 1024 * (domains - 1)

  let explore_par ?(max_states = 2_000_000) ?domains ?par_threshold
      ?(reduction = Full) ?snapshot_every ?snapshot_to ?resume_from
      ?mem_soft_limit_mb ?deadline_s ?(salvage = false) cfg =
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
    explore_impl ~max_states ~domains ~par_threshold ~reduction
      ~snapshot_every ~snapshot_to ~resume_from ~mem_soft_limit_mb ~deadline_s
      ~salvage cfg

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
           ~snapshot_every ~snapshot_to ~resume_from ~mem_soft_limit_mb:None
           ~deadline_s ~salvage cfg)


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
      | Out_of_memory | Resilience.Killed _ -> true
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
       kinds forced them — an alternating kill/EIO/OOM plan spends the
       same bounded budget a single repeated fault would. The count is
       stamped into the returned statistics as [recoveries]. *)
    let rec go attempt resume =
      match run ~resume_from:resume ~snapshot_to with
      | (_, stats)
        when (not stats.Checker_stats.complete)
             && stats.Checker_stats.stop = Checker_stats.Oom
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
