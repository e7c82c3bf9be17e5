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
    inc : string Cn.ctx option;  (* [Some] iff the group is non-trivial *)
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

  (* The in-RAM store explores in code space. A state is its code vector
     (DESIGN.md §5), keyed by one word when every code fits
     [Codec.word_bits] bits and by its codec string otherwise; a state's
     codes never change within a run, so the word table and the string
     table partition the visited set. One step changes at most one
     register and one local, so a successor's key is its parent's with at
     most two slots rewritten, and what each process's step does to a
     local code (and, for reads and RMWs, to a value code) is memoized per
     domain. A structural state is built, from the codec's reverse
     tables, only for a key that is new. *)

  (* What one process does from one local code. A [next] packs the new
     local code with the transition's [enters_cs] bit:
     [(code lsl 1) lor bit]. *)
  type step_memo =
    | Unknown
    | Halted  (* decided: takes no step *)
    | Moves of int  (* [Internal] *)
    | Flips of int * int  (* [Coin]: next on [true], next on [false] *)
    | Writes of { phys : int; v : int; next : int }
    | Reads of {
        phys : int;
        crit : bool;  (* in the critical section before the step *)
        k : P.Value.t -> P.local;
        mutable by_v : int array;  (* next per value code; -1 unknown *)
      }
    | Swaps of {
        phys : int;
        crit : bool;
        f : P.Value.t -> P.Value.t * P.local;
        mutable by_v : int array;
            (* new value code at [2c], next at [2c + 1]; -1 unknown *)
      }

  (* Growable buffers: [int] ones are monomorphic so their array accesses
     stay unboxed. *)
  type 'a vec = { mutable items : 'a array; mutable size : int }

  let vec () = { items = [||]; size = 0 }

  let push v x =
    if v.size = Array.length v.items then begin
      let a = Array.make (max 16 (2 * v.size)) x in
      Array.blit v.items 0 a 0 v.size;
      v.items <- a
    end;
    Array.unsafe_set v.items v.size x;
    v.size <- v.size + 1

  let ipush (v : int vec) x =
    if v.size = Array.length v.items then begin
      let a = Array.make (max 64 (2 * v.size)) 0 in
      Array.blit v.items 0 a 0 v.size;
      v.items <- a
    end;
    Array.unsafe_set v.items v.size x;
    v.size <- v.size + 1

  let take v =
    let a = Array.sub v.items 0 v.size in
    v.size <- 0;
    a

  (* An interned chunk of a wide generation, for building: [counts]
     holds each frontier state's candidate count, and [cands] two entries
     per candidate, its label and its id assignment (see [assign]), then,
     for a new state, its key (a word key, or -1 for the chunk's next
     string key in [strs]). *)
  type interned = { counts : int array; cands : int array; strs : string array }

  (* One domain's code-space context. *)
  type space = {
    memo : step_memo array array;  (* memo.(p).(local code) *)
    canon : unit Cn.ctx option;  (* [Some] iff the group is non-trivial *)
    pv : int array;  (* codes of the state being expanded *)
    pl : int array;
    sv : int array;  (* codes of its successor *)
    sl : int array;
    mutable skey : string;  (* the successor's key when it has no word *)
    mutable orbit : int;  (* the successor's orbit size *)
    tr_dst : int array;  (* the transitions of the state being built *)
    tr_lbl : int array;
    mutable ntr : int;
  }

  (* Keys of a frontier, aligned with its states: a word key, or
     [-1 - i] for the string [strs.(i)]. *)
  type keys = { words : int array; strs : string array }

  (* Wide generations. Narrow ones (frontier below [par_threshold]) run
     inline on domain 0. In a wide one, domain 0 still expands and interns
     every state, in frontier order, exactly as inline, so the ids are the
     sequential ids on every schedule; what it hands out is the graph's
     allocation. It publishes each interned chunk of the frontier, and any
     domain builds a published chunk: its transition lists and the
     structural states of its new keys. Only domain 0 touches the visited
     set, and a build reads nothing that changes while it runs but its
     own domain's context. Supervising a build means building again:
     domain 0 builds any chunk whose worker died or has held it past
     [stall_patience_s] itself, and respawns dead workers (at most
     [max_respawns] times each, counted in [restarts]) at the next wide
     generation. *)

  (* One wide generation, published to the workers as one atomic record.
     Domain 0 interns the chunks in order into [w_interned_out]
     ([w_interned] counts them); any domain claims the next one to build
     through [w_build_next], records itself in [w_builder], publishes in
     [w_built_out] and sets its flag in [w_built]. *)
  type wide = {
    w_interned : int Atomic.t;
    w_interned_out : interned array;
    w_build_next : int Atomic.t;
    w_builder : int Atomic.t array;
    w_built : bool Atomic.t array;
    w_built_out : (transition list array * state array) array;
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
    let n = Array.length cfg.ids and m = Naming.size cfg.namings.(0) in
    let bits = Codec.word_bits ~slots:(m + n) in
    let value_of = Cd.value_of_code codec
    and local_of = Cd.local_of_code codec in
    let labels =
      Array.init (2 * n) (fun i -> { proc = i / 2; enters_cs = i land 1 = 1 })
    in
    let st0 = initial cfg in
    (* one context per domain: step memos and canonizers are
       single-threaded, the codec behind them is shared *)
    let fresh_space () =
      {
        memo = Array.make n [||];
        canon =
          (match syms with
          | [] | [ _ ] -> None
          | syms ->
            Some
              (Cn.make_codes_ctx ~syms ~value_code:(Cd.value_code codec)
                 ~local_code:(Cd.local_code codec) ~value_of_code:value_of
                 ~local_of_code:local_of ~init:(st0.mem, st0.locals)));
        pv = Array.make m 0;
        pl = Array.make n 0;
        sv = Array.make m 0;
        sl = Array.make n 0;
        skey = "";
        orbit = 1;
        tr_dst = Array.make (2 * n) 0;
        tr_lbl = Array.make (2 * n) 0;
        ntr = 0;
      }
    in
    let spaces = Array.init d (fun _ -> fresh_space ()) in
    (* ---------------- steps and keys in code space ----------------- *)
    let next_of ~crit l =
      let bit =
        match P.status l with
        | Protocol.Critical when not crit -> 1
        | _ -> 0
      in
      (Cd.local_code codec l lsl 1) lor bit
    in
    let step_of sp p lc =
      let row = sp.memo.(p) in
      match if lc < Array.length row then row.(lc) else Unknown with
      | Unknown ->
        let l = local_of lc in
        let phys j = Naming.apply cfg.namings.(p) j in
        let s =
          match P.status l with
          | Protocol.Decided _ -> Halted
          | status -> (
            let crit = status = Protocol.Critical in
            match P.step ~n ~m ~id:cfg.ids.(p) l with
            | Protocol.Read (j, k) -> Reads { phys = phys j; crit; k; by_v = [||] }
            | Protocol.Write (j, v, l') ->
              Writes
                { phys = phys j; v = Cd.value_code codec v; next = next_of ~crit l' }
            | Protocol.Rmw (j, f) -> Swaps { phys = phys j; crit; f; by_v = [||] }
            | Protocol.Internal l' -> Moves (next_of ~crit l')
            | Protocol.Coin k ->
              Flips (next_of ~crit (k true), next_of ~crit (k false)))
        in
        let row =
          if lc < Array.length row then row
          else begin
            let r = Array.make (max 16 (2 * lc)) Unknown in
            Array.blit row 0 r 0 (Array.length row);
            sp.memo.(p) <- r;
            r
          end
        in
        row.(lc) <- s;
        s
      | s -> s
    in
    (* [by_v] with room for [i] *)
    let room by_v i =
      if i < Array.length by_v then by_v
      else begin
        let a = Array.make (max 16 (2 * i)) (-1) in
        Array.blit by_v 0 a 0 (Array.length by_v);
        a
      end
    in
    (* The key of a code vector: its word, or -1 with its string key in
       [sp.skey]. *)
    let key_of sp vc lc =
      let w = Codec.pack_word ~bits vc lc in
      if w < 0 then sp.skey <- Cd.key_of_codes codec vc lc;
      w
    in
    (* The key of the successor in which process [p] moved to local code
       [l] and, when [reg >= 0], wrote value code [v] to register [reg];
       [pw] is the parent's word key, or -1. Returns the successor's word
       key, or -1 with its string key in [sp.skey]; sets [sp.orbit]. *)
    let succ_key sp ~pw ~p ~reg ~v ~l =
      match sp.canon with
      | None when pw >= 0 && (l lor v) lsr bits = 0 ->
        sp.orbit <- 1;
        let w = pw lxor ((sp.pl.(p) lxor l) lsl (bits * (m + p))) in
        if reg < 0 then w else w lxor ((sp.pv.(reg) lxor v) lsl (bits * reg))
      | canon ->
        for k = 0 to m - 1 do
          sp.sv.(k) <- sp.pv.(k)
        done;
        for q = 0 to n - 1 do
          sp.sl.(q) <- sp.pl.(q)
        done;
        if reg >= 0 then sp.sv.(reg) <- v;
        sp.sl.(p) <- l;
        sp.orbit <-
          (match canon with
          | None -> 1
          | Some cx -> Cn.canon_codes cx sp.sv sp.sl);
        key_of sp sp.sv sp.sl
    in
    (* Load frontier key [i] into [sp.pv]/[sp.pl]; its word key or -1. *)
    let load sp keys i =
      let w = keys.words.(i) in
      if w >= 0 then Codec.unpack_word ~bits w sp.pv sp.pl
      else Cd.codes_of_key codec keys.strs.(-1 - w) sp.pv sp.pl;
      w
    in
    (* Every successor of the loaded state, in [successors] order: [emit sp
       label key] right after [succ_key] computed it. *)
    let succ sp ~pw ~p emit next ~reg ~v =
      emit sp ((2 * p) lor (next land 1))
        (succ_key sp ~pw ~p ~reg ~v ~l:(next lsr 1))
    in
    let expand sp ~pw emit =
      for p = 0 to n - 1 do
        match step_of sp p sp.pl.(p) with
        | Unknown | Halted -> ()
        | Moves next -> succ sp ~pw ~p emit next ~reg:(-1) ~v:0
        | Flips (a, b) ->
          succ sp ~pw ~p emit a ~reg:(-1) ~v:0;
          succ sp ~pw ~p emit b ~reg:(-1) ~v:0
        | Writes { phys; v; next } -> succ sp ~pw ~p emit next ~reg:phys ~v
        | Reads r ->
          let c = sp.pv.(r.phys) in
          if c >= Array.length r.by_v || r.by_v.(c) < 0 then begin
            r.by_v <- room r.by_v c;
            r.by_v.(c) <- next_of ~crit:r.crit (r.k (value_of c))
          end;
          succ sp ~pw ~p emit r.by_v.(c) ~reg:(-1) ~v:0
        | Swaps r ->
          let c = sp.pv.(r.phys) in
          if (2 * c) + 1 >= Array.length r.by_v || r.by_v.(2 * c) < 0 then begin
            let v', l' = r.f (value_of c) in
            r.by_v <- room r.by_v ((2 * c) + 1);
            r.by_v.(2 * c) <- Cd.value_code codec v';
            r.by_v.((2 * c) + 1) <- next_of ~crit:r.crit l'
          end;
          succ sp ~pw ~p emit r.by_v.((2 * c) + 1) ~reg:r.phys
            ~v:r.by_v.(2 * c)
      done
    in
    (* the structural state of a code vector *)
    let state_of vc lc =
      { mem = Array.map value_of vc; locals = Array.map local_of lc }
    in
    (* the visited set: word keys, and string keys apart *)
    let words = Inttbl.create 1024 and strs = Hashtbl.create 16 in
    (* the id of a word key [w], or of the string key [s] when [w < 0]; -1
       when absent *)
    let find w s =
      if w >= 0 then Inttbl.find words w
      else match Hashtbl.find_opt strs s with Some id -> id | None -> -1
    in
    let add w s id =
      if w >= 0 then Inttbl.add words w id else Hashtbl.add strs s id
    in
    let states_chunks = ref [] and orbits_chunks = ref [] in
    let trans_chunks = ref [] in
    let n_states = ref 0 in
    let cutover = ref None and restarts = ref 0 in
    (* the frontier's keys *)
    let frontier = ref { words = [||]; strs = [||] } in
    let keys_of_states sts =
      let sp = spaces.(0) and strs = vec () in
      let words =
        Array.map
          (fun st ->
            let vc = Array.map (Cd.value_code codec) st.mem in
            let lc = Array.map (Cd.local_code codec) st.locals in
            let w = key_of sp vc lc in
            if w >= 0 then w
            else begin
              push strs sp.skey;
              - strs.size
            end)
          sts
      in
      { words; strs = take strs }
    in
    let resumed =
      Option.map
        (fun sp ->
          (* rebuild the visited set: the codec dump keeps the codes of
             the interrupted run, and states in a snapshot are already
             canonical *)
          let all = keys_of_states sp.sp_states in
          Array.iteri
            (fun id w ->
              add w (if w >= 0 then "" else all.strs.(-1 - w)) id)
            all.words;
          let n = Array.length sp.sp_states and k = Array.length sp.sp_succs in
          let front = Array.sub sp.sp_states k (n - k) in
          frontier := keys_of_states front;
          states_chunks := [ sp.sp_states ];
          orbits_chunks := [ sp.sp_orbits ];
          if k > 0 then trans_chunks := [ sp.sp_succs ];
          n_states := n;
          cutover := sp.sp_cutover;
          ( {
              frontier = front;
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
      let sp = spaces.(0) in
      let vc = Array.map (Cd.value_code codec) st0.mem in
      let lc = Array.map (Cd.local_code codec) st0.locals in
      let orbit =
        match sp.canon with Some cx -> Cn.canon_codes cx vc lc | None -> 1
      in
      let w = key_of sp vc lc in
      add w sp.skey 0;
      frontier :=
        { words = [| (if w >= 0 then w else -1) |];
          strs = (if w >= 0 then [||] else [| sp.skey |]) };
      let rep = state_of vc lc in
      n_states := 1;
      states_chunks := [ [| rep |] ];
      orbits_chunks := [ [| orbit |] ];
      (rep, orbit)
    in
    (* ---------------- one generation ----------------- *)
    (* The one id assignment, shared by both kinds of generation. Called
       on the candidates in discovery order with the candidate's key (word
       [w], or string [s] when [w < 0]). Returns [(id lsl 1) lor 1] for a
       new state, [id lsl 1] for a known one, and -1 when the budget drops
       a new state. *)
    let gen_cand = ref 0 and gen_dups = ref 0 in
    let gen_dropped = ref 0 and gen_orbit_sum = ref 0 in
    let fresh_orbits = vec () and fresh_words = vec () in
    let fresh_strs = vec () in
    let assign ~orbit w s =
      incr gen_cand;
      match find w s with
      | -1 when !n_states >= max_states ->
        incr gen_dropped;
        -1
      | -1 ->
        let id = !n_states in
        incr n_states;
        add w s id;
        if w >= 0 then ipush fresh_words w
        else begin
          push fresh_strs s;
          ipush fresh_words (- fresh_strs.size)
        end;
        ipush fresh_orbits orbit;
        gen_orbit_sum := !gen_orbit_sum + orbit;
        (id lsl 1) lor 1
      | id ->
        incr gen_dups;
        id lsl 1
    in
    (* the structural state of a key, decoded in [sp]'s scratch *)
    let state_of_key sp w s =
      if w >= 0 then Codec.unpack_word ~bits w sp.sv sp.sl
      else Cd.codes_of_key codec s sp.sv sp.sl;
      state_of sp.sv sp.sl
    in
    (* the transitions of one state, built back to front *)
    let add_tr sp dst lbl =
      sp.tr_dst.(sp.ntr) <- dst;
      sp.tr_lbl.(sp.ntr) <- lbl;
      sp.ntr <- sp.ntr + 1
    in
    let transitions sp =
      let l = ref [] in
      for i = sp.ntr - 1 downto 0 do
        l := { dst = sp.tr_dst.(i); label = labels.(sp.tr_lbl.(i)) } :: !l
      done;
      sp.ntr <- 0;
      !l
    in
    let start_gen () =
      gen_cand := 0;
      gen_dups := 0;
      gen_dropped := 0;
      gen_orbit_sum := 0
    in
    (* End a generation: [trs] are the frontier's transition lists, in
       chunks, and [fresh] the new states in id order. *)
    let finish_gen trs fresh =
      let orbs = take fresh_orbits in
      frontier := { words = take fresh_words; strs = take fresh_strs };
      List.iter (fun tr -> trans_chunks := tr :: !trans_chunks) trs;
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
    let fresh = vec () in
    let emit_inline sp lbl w =
      match assign ~orbit:sp.orbit w sp.skey with
      | -1 -> ()
      | r ->
        if r land 1 = 1 then push fresh (state_of_key sp w sp.skey);
        add_tr sp (r lsr 1) lbl
    in
    let expand_inline () =
      let sp = spaces.(0) and keys = !frontier in
      start_gen ();
      let tr =
        Array.init (Array.length keys.words) (fun i ->
            (* fault seam: a matured kill/stall for domain 0 fires here *)
            Resilience.worker_tick ~domain:0;
            expand sp ~pw:(load sp keys i) emit_inline;
            transitions sp)
      in
      finish_gen [ tr ] (take fresh)
    in
    (* ---------------- the crew: build on every domain ---------------- *)
    let current : wide option Atomic.t = Atomic.make None in
    (* Domain 0 interns a chunk of a wide generation as [expand_inline]
       does, into these buffers; the chunk gets exact copies. *)
    let c_counts = vec () and c_cands = vec () and c_strs = vec () in
    let ncand = ref 0 in
    let emit_wide sp lbl w =
      incr ncand;
      let r = assign ~orbit:sp.orbit w sp.skey in
      ipush c_cands lbl;
      ipush c_cands r;
      if r >= 0 && r land 1 = 1 then begin
        ipush c_cands w;
        if w < 0 then push c_strs sp.skey
      end
    in
    let intern_chunk keys lo hi =
      let sp = spaces.(0) in
      for i = lo to hi - 1 do
        (* fault seam: a matured kill/stall for domain 0 fires here *)
        Resilience.worker_tick ~domain:0;
        ncand := 0;
        expand sp ~pw:(load sp keys i) emit_wide;
        ipush c_counts !ncand
      done;
      { counts = take c_counts; cands = take c_cands; strs = take c_strs }
    in
    (* An interned chunk's transition lists and new states (in id order). *)
    let build_chunk ~domain ch =
      let sp = spaces.(domain) and c = ch.cands and fresh = vec () in
      let k = ref 0 and spos = ref 0 in
      let tr =
        Array.init (Array.length ch.counts) (fun i ->
            (* fault seam for workers; domain 0's is its intern *)
            if domain > 0 then Resilience.worker_tick ~domain;
            for _ = 1 to ch.counts.(i) do
              let lbl = c.(!k) and r = c.(!k + 1) in
              k := !k + 2;
              if r >= 0 then begin
                if r land 1 = 1 then begin
                  let w = c.(!k) in
                  incr k;
                  let s =
                    if w >= 0 then ""
                    else begin
                      incr spos;
                      ch.strs.(!spos - 1)
                    end
                  in
                  push fresh (state_of_key sp w s)
                end;
                add_tr sp (r lsr 1) lbl
              end
            done;
            transitions sp)
      in
      (tr, take fresh)
    in
    (* Claim the next interned chunk of [w] to build, for [domain]; [false]
       when there is none to claim. *)
    let claim ~domain w =
      let c = Atomic.get w.w_build_next in
      c < Atomic.get w.w_interned
      && Atomic.compare_and_set w.w_build_next c (c + 1)
      && begin
        Atomic.set w.w_builder.(c) domain;
        w.w_built_out.(c) <- build_chunk ~domain w.w_interned_out.(c);
        Atomic.set w.w_built.(c) true;
        true
      end
    in
    let quit = Atomic.make false in
    let alive = Array.init d (fun _ -> Atomic.make false) in
    let doms : unit Domain.t option array = Array.make d None in
    let respawns = Array.make d 0 in
    (* A worker builds chunks until told to quit. Any exception ends it;
       domain 0 then builds its chunk again, so a deterministic failure
       resurfaces there. Idle workers back off to a short sleep: tests run
       more domains than the host has cores. *)
    let worker w () =
      (try
         let idle = ref 0 in
         while not (Atomic.get quit) do
           let worked =
             match Atomic.get current with
             | Some wd -> claim ~domain:w wd
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
      spaces.(w) <- fresh_space ();
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
    (* Domain 0's wait for chunk [c]'s build: build other chunks
       meanwhile, and build [c] itself once its owner has died or held it
       past the patience. A chunk built again gives the same output as its
       owner's, and domain 0 keeps its own. *)
    let await w c =
      let since = ref 0. and spins = ref 0 in
      let rec go () =
        if Atomic.get w.w_built.(c) then w.w_built_out.(c)
        else if claim ~domain:0 w then go ()
        else begin
          if !since = 0. then since := Checker_stats.now ();
          incr spins;
          let o = Atomic.get w.w_builder.(c) in
          if
            (o > 0 && not (Atomic.get alive.(o)))
            || !spins land 255 = 0
               && Checker_stats.now () -. !since > stall_patience_s
          then build_chunk ~domain:0 w.w_interned_out.(c)
          else begin
            Domain.cpu_relax ();
            go ()
          end
        end
      in
      go ()
    in
    let no_chunk = { counts = [||]; cands = [||]; strs = [||] } in
    let expand_wide () =
      let keys = !frontier in
      let nf = Array.length keys.words in
      let chunk = max 1 (min 64 (nf / (4 * d))) in
      let nc = (nf + chunk - 1) / chunk in
      let w =
        {
          w_interned = Atomic.make 0;
          w_interned_out = Array.make nc no_chunk;
          w_build_next = Atomic.make 0;
          w_builder = Array.init nc (fun _ -> Atomic.make (-1));
          w_built = Array.init nc (fun _ -> Atomic.make false);
          w_built_out = Array.make nc ([||], [||]);
        }
      in
      Atomic.set current (Some w);
      start_gen ();
      for c = 0 to nc - 1 do
        let lo = c * chunk in
        w.w_interned_out.(c) <- intern_chunk keys lo (min nf (lo + chunk));
        Atomic.set w.w_interned (c + 1)
      done;
      let built = Array.to_list (Array.init nc (await w)) in
      Atomic.set current None;
      finish_gen (List.map fst built) (Array.concat (List.map snd built))
    in
    let crew = ref false in
    let gen b ~flush:_ =
      assert (Array.length b.frontier = Array.length !frontier.words);
      if d = 1 || Array.length b.frontier < par_threshold then expand_inline ()
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
        expand_wide ()
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
      ( { cfg; states; orbits; succs; complete = st.complete },
        {
          st with
          domains = d;
          restarts = !restarts;
          cutover = img.r_cutover;
          sig_pruned =
            Array.fold_left
              (fun acc sp ->
                acc + match sp.canon with Some cx -> Cn.pruned cx | None -> 0)
              0 spaces;
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

  (* The edge loop is a top-level function: a local one would be a closure
     allocated per state. *)
  let rec fill_edges (f : Flatgraph.t) e = function
    | [] -> e
    | { dst; label = { proc; enters_cs } } :: rest ->
      f.dsts.{e} <- Int32.of_int dst;
      Bytes.set f.labels e (Char.chr (Flatgraph.label ~proc ~enters_cs));
      fill_edges f (e + 1) rest

  (* One pass counts the transitions, so [Flatgraph.create] can refuse a
     graph the int32 arrays cannot hold; one pass fills the arrays. *)
  let to_flat g =
    let n_procs = Array.length g.cfg.ids in
    let n_states = Array.length g.states in
    let n_edges =
      Array.fold_left (fun acc ts -> acc + List.length ts) 0 g.succs
    in
    let f =
      Flatgraph.create ~n_procs ~n_states ~n_edges ~complete:g.complete
    in
    let e = ref 0 in
    for v = 0 to n_states - 1 do
      let locals = g.states.(v).locals in
      for p = 0 to n_procs - 1 do
        Bytes.set f.status ((v * n_procs) + p)
          (Char.chr (Flatgraph.code (Flatgraph.of_status (P.status locals.(p)))))
      done;
      e := fill_edges f !e g.succs.(v);
      f.offsets.{v + 1} <- Int32.of_int !e
    done;
    f
end
