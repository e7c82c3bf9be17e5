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


  (* The plain FIFO-queue reference explorer. It shares no code with the
     generation driver below, so it stays an independent oracle for every
     engine the driver runs. *)
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

  let explore ?(max_states = 2_000_000) ?(reduction = Full) cfg =
    explore_basic ~max_states ~reduction cfg

  (* ---------------------------------------------------------------- *)
  (* the generation driver                                             *)
  (* ---------------------------------------------------------------- *)

  (* [explore_basic] pops a FIFO queue, so states are discovered
     generation by generation: every state at depth d gets an id below
     every state at depth d+1, and within one generation ids follow
     (expanded-state id ascending, successor position ascending). The
     driver below runs that generation loop once for every other engine,
     over a store that owns the visited set: the in-RAM table, which
     records the graph, or the disk-backed set, which counts it. The
     driver owns what happens between generations: the resume point,
     stop reasons, checkpoint cadence, degradation and the statistics.
     Canonicalization, encoding and interning stay inside the store's
     generation step, so no key crosses the seam (DESIGN.md §13). *)

  (* A generation boundary at which the run was exact, as the driver sees
     it: [frontier] is the pending generation, in id order. *)
  type boundary = {
    frontier : state array;
    n_states : int;
    n_transitions : int;
    depth : int;  (* BFS depth of [frontier] *)
    depths_rev : Checker_stats.depth_sample list;
    candidates : int;
    dedup : int;
    max_frontier : int;
    orbit_sum : int;
  }

  (* What a generation step reports: the fresh states (the next frontier,
     in id order), their orbit mass and the step's counts. [g_dropped]
     candidates were new states the budget refused; every other candidate
     became a transition. *)
  type generation = {
    g_fresh : state array;
    g_orbit_sum : int;
    g_candidates : int;
    g_dups : int;
    g_dropped : int;
  }

  (* A store's memory-pressure step after a generation. [Spilled] moved
     the hot visited set to disk, so the boundary is checkpointed at once
     (a checkpoint's manifest and hot keys must agree); [Quota_hit] refused a
     spill that would breach the disk quota, and the run stops at this
     still-exact boundary. *)
  type pressure = Calm | Spilled | Quota_hit

  (* A visited set the driver runs over; ['img] is its image of a
     boundary, ['r] its result (a graph, or unit). *)
  type ('img, 'r) store = {
    seed : unit -> state * int;
        (* intern the initial state of a fresh run: representative, orbit *)
    gen : boundary -> flush:(unit -> unit) -> generation;
        (* one generation over the boundary's frontier. [flush]
           checkpoints the boundary the step started from; a store calls
           it before it changes anything. *)
    relieve : unit -> pressure;
    capture : unit -> 'img;
    payload : 'img -> boundary -> elapsed:float -> string;
        (* the snapshot chunk of a captured boundary *)
    result : 'img -> Checker_stats.t -> 'r * Checker_stats.t;
        (* the result at a captured boundary, with the store's own
           statistics fields filled in *)
    flush_on_oom : bool;
        (* captured images stay writable after later generations, so an
           [Out_of_memory] can still flush the newest exact boundary *)
    close : unit -> unit;
  }

  (* Runs one exploration. [open_store syms payload] builds the store,
     fresh or from a snapshot chunk, returning the chunk's boundary and
     recorded wall-clock; it raises {!Snapshot.Error} to refuse a chunk. *)
  let drive ~max_states ~reduction ~snapshot_every ~snapshot_to ~resume_from
      ~deadline_s ~salvage ~fingerprint cfg open_store =
    let n_procs = Array.length cfg.ids in
    let syms = syms_of ~reduction cfg in
    let opened = open_store syms in
    (* The resume point. A salvaged read walks the intact chunks newest
       first until the store accepts one. *)
    let resume path =
      let digest, descr = Lazy.force fingerprint in
      let meta, chunks, salv =
        if salvage then Snapshot.read_chunks ~path
        else
          let meta, payload = Snapshot.read ~path in
          (meta, [ payload ], None)
      in
      Snapshot.check_fingerprint ~path meta ~fingerprint:digest ~descr;
      (* the resume is exact from an OLDER boundary; worth a visible note
         since work after that boundary is redone *)
      Option.iter
        (fun s ->
          Format.eprintf "snapshot salvage: %s: %s; rolled back to chunk %d@."
            path s.Snapshot.detail s.Snapshot.kept_chunks)
        salv;
      let rec pick = function
        | [] ->
          (* no intact chunk is usable (e.g. a short write silently
             damaged a spilled run every surviving manifest lists).
             Starting over is slower but never wrong. *)
          Format.eprintf
            "snapshot salvage: no checkpoint of %s has a valid run set; \
             restarting from scratch@."
            path;
          opened None
        | payload :: older -> (
          match opened (Some payload) with
          | accepted -> accepted
          | exception Snapshot.Error e when salvage ->
            Format.eprintf
              "snapshot salvage: %s; falling back to an older checkpoint@."
              (Snapshot.error_message e);
            pick older)
      in
      pick chunks
    in
    let store, resumed =
      match resume_from with
      | Some path when max_states >= 1 -> resume path
      | _ -> opened None
    in
    (* Elapsed time accumulates across resumes: back-date [t0] by the
       snapshot's recorded wall-clock. The deadline is invocation-local:
       a resumed run gets a fresh [deadline_s] from now. *)
    let t0 =
      Checker_stats.now ()
      -. match resumed with Some (_, elapsed) -> elapsed | None -> 0.
    in
    let deadline_at =
      Option.map (fun s -> Checker_stats.now () +. s) deadline_s
    in
    (* Why the run stopped: the first truncation cause wins, and the run
       is complete iff there was none. *)
    let stopped = ref Checker_stats.Completed in
    let cut r = if !stopped = Checker_stats.Completed then stopped := r in
    let finish img b =
      let canon = reduction = Canon in
      store.result img
        {
          Checker_stats.protocol = P.name;
          n_procs;
          n_registers = Naming.size cfg.namings.(0);
          domains = 1;
          n_states = b.n_states;
          n_transitions = b.n_transitions;
          max_depth = b.depth;
          max_frontier = b.max_frontier;
          candidates = b.candidates;
          dedup_hits = b.dedup;
          elapsed_s = Checker_stats.now () -. t0;
          complete = !stopped = Checker_stats.Completed;
          stop = !stopped;
          restarts = 0;
          recoveries = 0;
          canon;
          degraded = canon && Cn.degraded ~n:n_procs;
          group_order = max 1 (List.length syms);
          orbit_sum = b.orbit_sum;
          sig_pruned = 0;
          canon_hits = 0;
          cutover = None;
          spilled_runs = 0;
          disk_probes = 0;
          depths = List.rev b.depths_rev;
        }
    in
    let empty =
      {
        frontier = [||];
        n_states = 0;
        n_transitions = 0;
        depth = 0;
        depths_rev = [];
        candidates = 0;
        dedup = 0;
        max_frontier = 0;
        orbit_sum = 0;
      }
    in
    if max_states < 1 then begin
      cut Checker_stats.Budget;
      finish (store.capture ()) empty
    end
    else begin
      let b0 =
        match resumed with
        | Some (b, _) -> b
        | None ->
          (* the initial state is a candidate too, interned like any
             successor, so [candidates = n_states + dedup_hits] holds on
             complete runs *)
          let rep, orbit = store.seed () in
          {
            empty with
            frontier = [| rep |];
            n_states = 1;
            candidates = 1;
            max_frontier = 1;
            orbit_sum = orbit;
          }
      in
      let b = ref b0 in
      (* The newest exact boundary and whether it is on disk: a truncated
         run leaves it there on the way out, so a resumed run replays the
         suffix bit-identically. *)
      let last = ref (b0, store.capture ()) in
      let flushed = ref false in
      let last_snapshot_states = ref b0.n_states in
      let snapshot_gap =
        match snapshot_every with
        | Some e -> max 1 e
        | None -> default_snapshot_every
      in
      let flush () =
        match snapshot_to with
        | Some path when not !flushed ->
          let lb, img = !last in
          let digest, descr = Lazy.force fingerprint in
          (* durable O(new data) append; the snapshot layer compacts the
             file back to one chunk every [Snapshot.max_chunks] boundaries *)
          Snapshot.append ~path ~fingerprint:digest ~descr
            (store.payload img lb ~elapsed:(Checker_stats.now () -. t0));
          flushed := true;
          last_snapshot_states := lb.n_states
        | _ -> ()
      in
      (* One generation and its boundary; [false] ends the run. While the
         run is exact, the boundary a step starts from is the newest exact
         one, so the step may flush it. *)
      let generation () =
        let cur = !b in
        let g =
          store.gen cur ~flush:(fun () ->
              if !stopped = Checker_stats.Completed then flush ())
        in
        (* fault seam: a matured Alloc_fail raises [Out_of_memory] here,
           before the generation is committed, exercising the same
           degradation path a real allocation failure would *)
        Resilience.boundary_tick ();
        if g.g_dropped > 0 then cut Checker_stats.Budget;
        let nn = Array.length g.g_fresh in
        b :=
          {
            frontier = g.g_fresh;
            n_states = cur.n_states + nn;
            n_transitions = cur.n_transitions + g.g_candidates - g.g_dropped;
            depth = (if nn = 0 then cur.depth else cur.depth + 1);
            depths_rev =
              {
                Checker_stats.depth = cur.depth;
                frontier = Array.length cur.frontier;
                candidates = g.g_candidates;
                discovered = nn;
                duplicates = g.g_dups;
              }
              :: cur.depths_rev;
            candidates = cur.candidates + g.g_candidates;
            dedup = cur.dedup + g.g_dups;
            max_frontier = max cur.max_frontier nn;
            orbit_sum = cur.orbit_sum + g.g_orbit_sum;
          };
        nn > 0
        &&
        let pressure = store.relieve () in
        if !stopped = Checker_stats.Completed then begin
          last := (!b, store.capture ());
          flushed := false;
          if
            pressure <> Calm
            || (!b).n_states - !last_snapshot_states >= snapshot_gap
          then flush ()
        end;
        let halt r =
          cut r;
          false
        in
        (* a refused spill, SIGINT/SIGTERM (or a programmatic stop
           request) and the wall-clock deadline all stop the run at this
           boundary, each with its own reason *)
        if pressure = Quota_hit then halt Checker_stats.Disk_full
        else if Snapshot.stop_requested () then halt Checker_stats.Interrupted
        else
          match deadline_at with
          | Some td when Checker_stats.now () >= td ->
            halt Checker_stats.Deadline
          | _ -> true
      in
      let rec loop () = if generation () then loop () in
      match
        Fun.protect ~finally:store.close (fun () ->
            if Array.length b0.frontier > 0 then loop ())
      with
      | () ->
        if !stopped <> Checker_stats.Completed then flush ();
        finish (store.capture ()) !b
      | exception Out_of_memory when snapshot_to <> None ->
        (* last-ditch degradation: hand back a truncated result at the
           newest exact boundary, flushed when the store still can, instead
           of dying with nothing *)
        cut Checker_stats.Oom;
        if store.flush_on_oom then (try flush () with Snapshot.Error _ -> ());
        let lb, img = !last in
        finish img lb
    end

  (* ---------------------------------------------------------------- *)
  (* the in-RAM store                                                  *)
  (* ---------------------------------------------------------------- *)

  (* Snapshot payload of the in-RAM store: states [0, n) are interned,
     states [0, k) are expanded with their transition lists recorded, and
     the pending frontier is exactly states [k, n) in id order — the FIFO
     order the reference explorer would expand them in, so continuing
     from a snapshot is indistinguishable from never having stopped. The
     codec dump keeps packed keys byte-identical across the resume. *)
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

  (* The in-RAM image of a boundary, O(1) to capture: the chunk lists are
     persistent, so consing later generations never mutates a stashed
     tail. *)
  type ram_image = {
    r_states : state array list;  (* reversed chunks *)
    r_orbits : int array list;
    r_trans : transition list array list;
    r_cutover : int option;
  }

  (* Wide generations. Narrow ones (frontier below [par_threshold]) run
     inline on domain 0. In a wide one any domain may map a chunk of the
     frontier to its successors' representatives, keys and orbits, while
     domain 0 interns the mapped chunks in frontier order through the
     inline generation's [intern], so the ids are the sequential ids on
     every schedule. Supervising a pure chunk means mapping it again:
     domain 0 maps any chunk whose worker died or has held it past
     [stall_patience_s] itself, and respawns dead workers (at most
     [max_respawns] times each, counted in [restarts]) at the next wide
     generation. *)

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

  let ram_store ~domains:d ~par_threshold ~max_states cfg syms payload =
    let sp : snapshot_payload option =
      Option.map (fun p -> Marshal.from_string p 0) payload
    in
    let codec =
      match sp with Some sp -> Cd.of_dump sp.sp_codec | None -> Cd.create ()
    in
    (* one reduction context per domain: ctxs are single-threaded, the
       codec behind them is shared (and CAS-safe) *)
    let fresh_canon_cache () = make_canon_cache codec syms (initial cfg) in
    let ccs = Array.init d (fun _ -> fresh_canon_cache ()) in
    let table : (string, int) Hashtbl.t = Hashtbl.create 1024 in
    let states_chunks = ref [] and orbits_chunks = ref [] in
    let trans_chunks = ref [] in
    let n_states = ref 0 in
    let cutover = ref None and restarts = ref 0 in
    let resumed =
      Option.map
        (fun sp ->
          (* rebuild the intern table: the codec dump keeps re-encoded
             keys consistent with the interrupted run's, and states in a
             snapshot are already canonical *)
          Array.iteri
            (fun id st ->
              Hashtbl.add table (Cd.encode codec st.mem st.locals) id)
            sp.sp_states;
          let n = Array.length sp.sp_states and k = Array.length sp.sp_succs in
          states_chunks := [ sp.sp_states ];
          orbits_chunks := [ sp.sp_orbits ];
          if k > 0 then trans_chunks := [ sp.sp_succs ];
          n_states := n;
          cutover := sp.sp_cutover;
          ( {
              frontier = Array.sub sp.sp_states k (n - k);
              n_states = n;
              n_transitions =
                Array.fold_left
                  (fun acc ts -> acc + List.length ts)
                  0 sp.sp_succs;
              depth = sp.sp_depth;
              depths_rev = sp.sp_depths_rev;
              candidates = sp.sp_candidates;
              dedup = sp.sp_dedup;
              max_frontier = sp.sp_max_frontier;
              orbit_sum = sp.sp_orbit_sum;
            },
            sp.sp_elapsed ))
        sp
    in
    let seed () =
      let rep, key, orbit = canonize_cached ccs.(0) codec (initial cfg) in
      Hashtbl.add table key 0;
      n_states := 1;
      states_chunks := [ [| rep |] ];
      orbits_chunks := [ [| orbit |] ];
      (rep, orbit)
    in
    (* The one id assignment, shared by both kinds of generation. Called
       on the candidates in discovery order; returns the candidate's id,
       or -1 when the budget drops a new state. *)
    let gen_cand = ref 0 and gen_dups = ref 0 in
    let gen_dropped = ref 0 and gen_orbit_sum = ref 0 in
    let gen_fresh = ref [] and gen_orbs = ref [] in
    let intern rep key orbit =
      incr gen_cand;
      match Hashtbl.find_opt table key with
      | Some id ->
        incr gen_dups;
        id
      | None when !n_states >= max_states ->
        incr gen_dropped;
        -1
      | None ->
        let id = !n_states in
        incr n_states;
        Hashtbl.add table key id;
        gen_orbit_sum := !gen_orbit_sum + orbit;
        gen_fresh := rep :: !gen_fresh;
        gen_orbs := orbit :: !gen_orbs;
        id
    in
    (* Run one generation: [expand i] must return frontier state [i]'s
       transition list, interning its candidates in successor order; it
       is called for i = 0, 1, ... in turn. *)
    let run_gen frontier expand =
      gen_cand := 0;
      gen_dups := 0;
      gen_dropped := 0;
      gen_orbit_sum := 0;
      let tr = Array.make (Array.length frontier) [] in
      for i = 0 to Array.length tr - 1 do
        tr.(i) <- expand i
      done;
      let fresh = Array.of_list (List.rev !gen_fresh) in
      let orbs = Array.of_list (List.rev !gen_orbs) in
      gen_fresh := [];
      gen_orbs := [];
      trans_chunks := tr :: !trans_chunks;
      if Array.length fresh > 0 then begin
        states_chunks := fresh :: !states_chunks;
        orbits_chunks := orbs :: !orbits_chunks
      end;
      {
        g_fresh = fresh;
        g_orbit_sum = !gen_orbit_sum;
        g_candidates = !gen_cand;
        g_dups = !gen_dups;
        g_dropped = !gen_dropped;
      }
    in
    let rec intern_succs = function
      | [] -> []
      | (label, st') :: rest ->
        let rep, key, orbit = canonize_cached ccs.(0) codec st' in
        let dst = intern rep key orbit in
        if dst < 0 then intern_succs rest
        else { dst; label } :: intern_succs rest
    in
    let expand_inline fr =
      run_gen fr (fun i ->
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
            incr restarts;
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
    let expand_wide fr =
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
      let g =
        run_gen fr (fun i ->
            if i mod chunk = 0 then begin
              Atomic.set w.w_interning (i / chunk);
              out := await w (i / chunk)
            end;
            intern_cands !out.(i mod chunk))
      in
      Atomic.set current None;
      g
    in
    let crew = ref false in
    let gen b ~flush:_ =
      if d = 1 || Array.length b.frontier < par_threshold then
        expand_inline b.frontier
      else begin
        if not !crew then begin
          crew := true;
          (* a resumed run keeps the original run's cutover *)
          if !cutover = None then cutover := Some b.depth;
          for w = 1 to d - 1 do
            spawn w
          done
        end
        else respawn_dead ();
        expand_wide b.frontier
      end
    in
    let capture () =
      {
        r_states = !states_chunks;
        r_orbits = !orbits_chunks;
        r_trans = !trans_chunks;
        r_cutover = !cutover;
      }
    in
    let payload img b ~elapsed =
      Marshal.to_string
        {
          sp_states = Array.concat (List.rev img.r_states);
          sp_orbits = Array.concat (List.rev img.r_orbits);
          sp_succs = Array.concat (List.rev img.r_trans);
          sp_depth = b.depth;
          sp_depths_rev = b.depths_rev;
          sp_candidates = b.candidates;
          sp_dedup = b.dedup;
          sp_max_frontier = b.max_frontier;
          sp_orbit_sum = b.orbit_sum;
          sp_cutover = img.r_cutover;
          sp_elapsed = elapsed;
          sp_codec = Cd.dump codec;
          sp_rng = None;
        }
        []
    in
    (* The graph at a boundary. When the boundary has unexpanded frontier
       states (stopped by a signal, or degraded out of an
       [Out_of_memory]), their transition lists are empty in the returned
       graph — the snapshot, not this graph, is the resume artifact. *)
    let result img (st : Checker_stats.t) =
      let states = Array.concat (List.rev img.r_states) in
      let orbits = Array.concat (List.rev img.r_orbits) in
      let expanded = Array.concat (List.rev img.r_trans) in
      let n = Array.length states and k = Array.length expanded in
      assert (n = st.n_states && Array.length orbits = n);
      let succs =
        if k = n then expanded
        else begin
          assert (not st.complete);
          Array.init n (fun i -> if i < k then expanded.(i) else [])
        end
      in
      let sum f = Array.fold_left (fun acc cc -> acc + f cc) 0 ccs in
      ( { cfg; states; orbits; succs; complete = st.complete },
        {
          st with
          domains = d;
          restarts = !restarts;
          cutover = img.r_cutover;
          sig_pruned =
            sum (fun cc -> match cc.inc with Some i -> Cn.pruned i | None -> 0);
          canon_hits = sum (fun cc -> cc.hits);
        } )
    in
    ( {
        seed;
        gen;
        relieve = (fun () -> Calm);
        capture;
        payload;
        result;
        flush_on_oom = true;
        close = shutdown;
      },
      resumed )

  let explore_with_stats ?(max_states = 2_000_000) ?(domains = 1)
      ?par_threshold ?(reduction = Full) ?snapshot_every ?snapshot_to
      ?resume_from ?deadline_s ?(salvage = false) cfg =
    let domains = max 1 domains in
    let par_threshold =
      match par_threshold with
      | Some t -> max 0 t
      | None -> 1024 * (domains - 1)
    in
    drive ~max_states ~reduction ~snapshot_every ~snapshot_to ~resume_from
      ~deadline_s ~salvage
      ~fingerprint:(lazy (fingerprint ~reduction cfg))
      cfg
      (ram_store ~domains ~par_threshold ~max_states cfg)

  (* ---------------------------------------------------------------- *)
  (* the disk-backed store                                             *)
  (* ---------------------------------------------------------------- *)

  (* Checkpoint payload of the disk-backed store. Stats-only — no
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

  let disk_store ~max_states ~hot_cap ~disk_quota_bytes ~mem_soft_limit_mb
      ~wide ~dir ~fingerprint:(digest, descr) cfg syms payload =
    let xp : external_payload option =
      Option.map (fun p -> Marshal.from_string p 0) payload
    in
    (* a checkpoint is only usable if every run file its manifest lists
       still validates in full; [restore] raises to refuse it *)
    let restored =
      Option.map
        (fun xp ->
          Disk_visited.restore ?quota_bytes:disk_quota_bytes ~dir
            ~fingerprint:digest ~descr xp.xp_manifest)
        xp
    in
    let codec =
      match xp with
      | Some xp -> Cd.of_dump xp.xp_codec
      | None -> Cd.create ~wide ()
    in
    let key_len =
      Cd.width codec * (Naming.size cfg.namings.(0) + Array.length cfg.ids)
    in
    let dv =
      match restored with
      | Some dv -> dv
      | None ->
        Disk_visited.create ?quota_bytes:disk_quota_bytes ~dir ~key_len ()
    in
    let cc = make_canon_cache codec syms (initial cfg) in
    (* Visited = hot ∪ runs, disjoint: a key is interned only after both
       proved it absent, and a spill MOVES hot to a run. *)
    let hot : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
    let resumed =
      Option.map
        (fun xp ->
          Array.iter (fun k -> Hashtbl.replace hot k ()) xp.xp_hot;
          ( {
              frontier = xp.xp_frontier;
              n_states = xp.xp_n_states;
              n_transitions = xp.xp_n_transitions;
              depth = xp.xp_depth;
              depths_rev = xp.xp_depths_rev;
              candidates = xp.xp_candidates;
              dedup = xp.xp_dedup;
              max_frontier = xp.xp_max_frontier;
              orbit_sum = xp.xp_orbit_sum;
            },
            xp.xp_elapsed ))
        xp
    in
    let seed () =
      let rep, key, orbit = canonize_cached cc codec (initial cfg) in
      Hashtbl.replace hot key ();
      (rep, orbit)
    in
    let gen b ~flush =
      (* expand + canonize every candidate, in frontier order *)
      let cand_rev = ref [] in
      Array.iter
        (fun st ->
          (* fault seam, as in the in-RAM store *)
          Resilience.worker_tick ~domain:0;
          List.iter
            (fun (_, st') ->
              let rep, key, orbit = canonize_cached cc codec st' in
              cand_rev := (key, rep, orbit) :: !cand_rev)
            (successors cfg st))
        b.frontier;
      let cands = Array.of_list (List.rev !cand_rev) in
      let ncand = Array.length cands in
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
      (* the budget may trip inside this generation, and the hot table has
         no O(1) image: checkpoint the (still exact) boundary now, so a
         budget-truncated run resumes bit-identically from here *)
      if b.n_states + ncand > max_states then flush ();
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
      (* the id scan, in candidate order — the in-RAM store's budget
         semantics. [kept.(k)]: first occurrence [k] is a known or a newly
         interned state, not one the budget dropped. *)
      let n_states = ref b.n_states in
      let fresh_rev = ref [] and orbit_sum = ref 0 in
      let dups = ref 0 and dropped = ref 0 in
      let kept = Array.make ncand false in
      Array.iteri
        (fun k (key, rep, orbit) ->
          let c = cls.(k) in
          if c = -1 then incr dups
          else if c >= 0 then begin
            if Hashtbl.mem on_disk key then begin
              (* a known state; deliberately NOT cached back into hot —
                 that would break hot/runs disjointness. Recurring keys
                 are re-probed, the classic DDD trade. *)
              incr dups;
              kept.(k) <- true
            end
            else if !n_states < max_states then begin
              incr n_states;
              Hashtbl.replace hot key ();
              orbit_sum := !orbit_sum + orbit;
              fresh_rev := rep :: !fresh_rev;
              kept.(k) <- true
            end
            else incr dropped
          end
          else if kept.(-2 - c) then incr dups
          else (* duplicate of a budget-dropped candidate *) incr dropped)
        cands;
      {
        g_fresh = Array.of_list (List.rev !fresh_rev);
        g_orbit_sum = !orbit_sum;
        g_candidates = ncand;
        g_dups = !dups;
        g_dropped = !dropped;
      }
    in
    let hot_keys () =
      Array.of_list (Hashtbl.fold (fun k () acc -> k :: acc) hot [])
    in
    let soft_limit_bytes =
      Option.map (fun mb -> mb * 1024 * 1024) mem_soft_limit_mb
    in
    let hot_cap = max 1 hot_cap in
    (* At the watermark, MOVE the hot table to disk as one sorted
       immutable run. A spill that would breach the byte quota is refused
       BEFORE any byte is written: the run stops at this exact boundary
       instead of corrupting or over-filling the run set. *)
    let relieve () =
      let pressured =
        match soft_limit_bytes with
        | Some limit ->
          (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) > limit
        | None -> false
      in
      let n = Hashtbl.length hot in
      if n = 0 || (n < hot_cap && not pressured) then Calm
      else if Disk_visited.would_exceed_quota dv ~adding:(n * key_len) then
        Quota_hit
      else begin
        let keys = hot_keys () in
        Array.sort compare keys;
        Disk_visited.spill dv ~fingerprint:digest ~descr keys;
        Hashtbl.reset hot;
        if pressured then Gc.compact ();
        Spilled
      end
    in
    (* the hot table has no O(1) image: a checkpoint reads the store as
       it is, which the driver only asks for at the boundary it captured *)
    let payload () b ~elapsed =
      Marshal.to_string
        {
          xp_frontier = b.frontier;
          xp_depth = b.depth;
          xp_depths_rev = b.depths_rev;
          xp_n_states = b.n_states;
          xp_n_transitions = b.n_transitions;
          xp_candidates = b.candidates;
          xp_dedup = b.dedup;
          xp_max_frontier = b.max_frontier;
          xp_orbit_sum = b.orbit_sum;
          xp_elapsed = elapsed;
          xp_codec = Cd.dump codec;
          xp_hot = hot_keys ();
          xp_manifest = Disk_visited.manifest dv;
        }
        []
    in
    let result () (st : Checker_stats.t) =
      ( (),
        {
          st with
          sig_pruned = (match cc.inc with Some i -> Cn.pruned i | None -> 0);
          canon_hits = cc.hits;
          spilled_runs = Disk_visited.n_runs dv;
          disk_probes = Disk_visited.n_probes dv;
        } )
    in
    ( {
        seed;
        gen;
        relieve;
        capture = ignore;
        payload;
        result;
        flush_on_oom = false;
        close = ignore;
      },
      resumed )

  let explore_external ?(max_states = 2_000_000) ?(reduction = Full)
      ?snapshot_every ?snapshot_to ?resume_from ?mem_soft_limit_mb
      ?(hot_cap = 1 lsl 20) ?disk_quota_bytes ?deadline_s ?(salvage = false)
      ?(wide = false) ~dir cfg =
    let fingerprint = external_fingerprint ~reduction cfg in
    snd
      (drive ~max_states ~reduction ~snapshot_every ~snapshot_to ~resume_from
         ~deadline_s ~salvage ~fingerprint:(Lazy.from_val fingerprint) cfg
         (disk_store ~max_states ~hot_cap ~disk_quota_bytes ~mem_soft_limit_mb
            ~wide ~dir ~fingerprint cfg))

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
