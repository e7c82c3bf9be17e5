open Anonmem

type verdict = Clean | Violation | Undecided

let pp_verdict ppf v =
  Format.pp_print_string ppf
    (match v with
    | Clean -> "clean"
    | Violation -> "VIOLATION"
    | Undecided -> "undecided")

module Make (P : Protocol.PROTOCOL) = struct
  module E = Explore.Make (P)
  module S = Shrink.Make (P)

  type graph_witness = State of int | Cycle of int list

  type property = {
    name : string;
    check : E.graph -> Flatgraph.t -> graph_witness option;
    rt_check : (P.input array -> S.R.t -> bool) option;
  }

  let mutex_me =
    {
      name = "mutual-exclusion";
      check =
        (fun _g flat ->
          Option.map
            (fun (v : Mutex_props.me_violation) -> State v.state)
            (Mutex_props.mutual_exclusion flat));
      rt_check = Some (fun _ rt -> S.R.critical_pair rt <> None);
    }

  let mutex_df =
    {
      name = "deadlock-freedom";
      check =
        (fun _g flat ->
          Option.map
            (fun (v : Mutex_props.df_violation) -> Cycle v.states)
            (Mutex_props.deadlock_freedom flat));
      rt_check = None;
    }

  let decided_pairs_exist ~bad rt =
    let ds = S.R.decisions rt in
    let n = Array.length ds in
    let found = ref false in
    for i = 0 to n - 1 do
      match ds.(i) with
      | None -> ()
      | Some a ->
        for j = i + 1 to n - 1 do
          match ds.(j) with
          | Some b when bad a b -> found := true
          | _ -> ()
        done
    done;
    !found

  let agreement ~equal =
    {
      name = "agreement";
      check =
        (fun g _ ->
          Option.map
            (fun (d : P.output Props.disagreement) -> State d.state)
            (Props.agreement ~equal ~statuses:E.statuses g.E.states));
      rt_check =
        Some (fun _ -> decided_pairs_exist ~bad:(fun a b -> not (equal a b)));
    }

  let validity ~allowed =
    {
      name = "validity";
      check =
        (fun g _ ->
          Option.map
            (fun (d : P.output Props.decided) -> State d.state)
            (Props.validity ~allowed:(allowed g.E.cfg.inputs)
               ~statuses:E.statuses g.E.states));
      rt_check =
        Some
          (fun inputs rt ->
            Array.exists
              (function Some o -> not (allowed inputs o) | None -> false)
              (S.R.decisions rt));
    }

  let distinct_outputs ~equal =
    {
      name = "distinct-outputs";
      check =
        (fun g _ ->
          Option.map
            (fun (d : P.output Props.disagreement) -> State d.state)
            (Props.distinct_outputs ~equal ~statuses:E.statuses g.E.states));
      rt_check = Some (fun _ -> decided_pairs_exist ~bad:equal);
    }

  (* ---- graph witness -> replayable schedule ---- *)

  let bfs_tree (succs : E.transition list array) =
    let n = Array.length succs in
    let prev = Array.make n (-1) in
    let via = Array.make n (-1) in
    let dist = Array.make n max_int in
    prev.(0) <- 0;
    dist.(0) <- 0;
    let q = Queue.create () in
    Queue.add 0 q;
    while not (Queue.is_empty q) do
      let s = Queue.pop q in
      List.iter
        (fun (t : E.transition) ->
          if prev.(t.dst) < 0 then begin
            prev.(t.dst) <- s;
            via.(t.dst) <- t.label.proc;
            dist.(t.dst) <- dist.(s) + 1;
            Queue.add t.dst q
          end)
        succs.(s)
    done;
    (prev, via, dist)

  let path_from_tree (prev, via, _) target =
    if target <> 0 && prev.(target) < 0 then None
    else begin
      let rec build acc s = if s = 0 then acc else build (via.(s) :: acc) prev.(s) in
      Some (build [] target)
    end

  let bundle_of ~seed (g : E.graph) ~steps ~loop =
    {
      S.m = Naming.size g.cfg.namings.(0);
      ids = g.cfg.ids;
      inputs = g.cfg.inputs;
      namings = Array.map Naming.to_array g.cfg.namings;
      crashes = [||];
      steps = Array.of_list steps;
      loop = Array.of_list loop;
      seed;
    }

  (* Build a concrete lasso from a fair cycle's SCC: reach a member state,
     then walk inside the component (over enter-free edges only) making
     every obliged process take a step, and close back to the start. The
     component is an SCC of the enter-free subgraph, so all these inner
     paths exist. *)
  let lasso_of (g : E.graph) members tree =
    let nstates = Array.length g.states in
    let nprocs = Array.length g.cfg.ids in
    let memb = Array.make nstates false in
    List.iter (fun s -> memb.(s) <- true) members;
    let inner s =
      List.filter
        (fun (t : E.transition) -> memb.(t.dst) && not t.label.enters_cs)
        g.succs.(s)
    in
    let obliged = Array.make nprocs false in
    List.iter
      (fun s ->
        Array.iteri
          (fun i st ->
            match st with
            | Protocol.Trying | Protocol.Critical | Protocol.Exiting ->
              obliged.(i) <- true
            | Protocol.Remainder | Protocol.Decided _ -> ())
          (E.statuses g.states.(s)))
      members;
    let _, _, dist = tree in
    let v0 =
      List.fold_left
        (fun best s ->
          let trying =
            Array.exists
              (fun st -> st = Protocol.Trying)
              (E.statuses g.states.(s))
          in
          match best with
          | _ when not (trying && dist.(s) < max_int) -> best
          | Some b when dist.(b) <= dist.(s) -> best
          | _ -> Some s)
        None members
    in
    match v0 with
    | None -> None
    | Some v0 -> (
      let bfs_within src ~stop =
        let prev = Array.make nstates (-2) in
        let via = Array.make nstates (-1) in
        prev.(src) <- -1;
        let q = Queue.create () in
        Queue.add src q;
        let found = ref (if stop src then Some src else None) in
        while !found = None && not (Queue.is_empty q) do
          let s = Queue.pop q in
          List.iter
            (fun (t : E.transition) ->
              if prev.(t.dst) = -2 then begin
                prev.(t.dst) <- s;
                via.(t.dst) <- t.label.proc;
                if !found = None && stop t.dst then found := Some t.dst;
                Queue.add t.dst q
              end)
            (inner s)
        done;
        Option.map
          (fun tgt ->
            let rec build acc s =
              if s = src then acc else build (via.(s) :: acc) prev.(s)
            in
            (build [] tgt, tgt))
          !found
      in
      let cur = ref v0 in
      let walk = ref [] in
      let ok = ref true in
      for p = 0 to nprocs - 1 do
        if obliged.(p) && !ok then begin
          let has_p_edge s =
            List.exists (fun (t : E.transition) -> t.label.proc = p) (inner s)
          in
          match bfs_within !cur ~stop:has_p_edge with
          | None -> ok := false
          | Some (steps, s) ->
            let t =
              List.find (fun (t : E.transition) -> t.label.proc = p) (inner s)
            in
            walk := !walk @ steps @ [ p ];
            cur := t.dst
        end
      done;
      if not !ok then None
      else
        match bfs_within !cur ~stop:(fun s -> s = v0) with
        | None -> None
        | Some (closing, _) -> (
          match path_from_tree tree v0 with
          | None -> None
          | Some prefix -> Some (prefix, !walk @ closing)))

  let witness_bundle ~seed (g : E.graph) w =
    let tree = bfs_tree g.succs in
    match w with
    | State s ->
      Option.map
        (fun steps -> bundle_of ~seed g ~steps ~loop:[])
        (path_from_tree tree s)
    | Cycle members ->
      Option.map
        (fun (prefix, loop) -> bundle_of ~seed g ~steps:prefix ~loop)
        (lasso_of g members tree)

  (* ---- the differential driver ---- *)

  type disagreement = { attempt : int; subject : string; detail : string }

  type report = {
    attempts : int;
    agreed : int;
    violations : int;
    undecided : int;
    by_boundary : (string * int) list;
    first_witness : (string * S.bundle) option;
    disagreement : disagreement option;
  }

  let pp_report ppf r =
    Format.fprintf ppf "attempts %d  agreed %d  violations %d  undecided %d"
      r.attempts r.agreed r.violations r.undecided;
    List.iter
      (fun (label, count) -> Format.fprintf ppf "@.  %-14s %d" label count)
      r.by_boundary;
    (match r.first_witness with
    | Some (name, b) ->
      Format.fprintf ppf "@.first witness: %s (n=%d m=%d, %d steps%s)" name
        (S.n_procs b) b.S.m (Array.length b.S.steps)
        (if Array.length b.S.loop > 0 then
           Printf.sprintf " + %d loop" (Array.length b.S.loop)
         else "")
    | None -> ());
    match r.disagreement with
    | Some d ->
      Format.fprintf ppf "@.DISAGREEMENT at attempt %d [%s]: %s" d.attempt
        d.subject d.detail
    | None -> ()

  let same_graph (a : E.graph) (b : E.graph) =
    Array.length a.states = Array.length b.states
    && a.complete = b.complete
    && a.succs = b.succs

  let run ?(seed = 1) ?(attempts = 100) ?time_budget ?(max_states = 20_000)
      ?(probes = 4) ?profile ?(fixed = (None, None)) ?(deterministic = true)
      ?(crash_probes = true) ?twin ~properties ~gen_inputs () =
    let t0 = Unix.gettimeofday () in
    let over_budget () =
      match time_budget with
      | None -> false
      | Some b -> Unix.gettimeofday () -. t0 > b
    in
    let base = Option.value profile ~default:Gen.default_profile in
    let profile =
      let fix v (lo, hi) = match v with Some v -> (v, v) | None -> (lo, hi) in
      let n_min, n_max = fix (fst fixed) (base.Gen.n_min, base.Gen.n_max) in
      let m_min, m_max = fix (snd fixed) (base.Gen.m_min, base.Gen.m_max) in
      { Gen.n_min; n_max; m_min; m_max }
    in
    let made = ref 0 in
    let agreed = ref 0 in
    let violations = ref 0 in
    let undecided = ref 0 in
    let boundary = Hashtbl.create 4 in
    let first_witness = ref None in
    let disagreement = ref None in
    let attempt = ref 0 in
    while !attempt < attempts && !disagreement = None && not (over_budget ())
    do
      let i = !attempt in
      incr attempt;
      incr made;
      let aseed = (seed * 1_000_003) + i in
      let arng = Rng.create aseed in
      let pars = Gen.params ~profile arng in
      let label = Gen.boundary_label ~n:pars.n ~m:pars.m in
      Hashtbl.replace boundary label
        (1 + Option.value (Hashtbl.find_opt boundary label) ~default:0);
      let inputs = gen_inputs arng ~n:pars.n in
      let cfg : E.config =
        {
          ids = pars.ids;
          inputs;
          namings = Array.map Naming.of_array pars.namings;
        }
      in
      let disagree subject detail =
        if !disagreement = None then
          disagreement := Some { attempt = i; subject; detail }
      in
      let g = E.explore ~max_states cfg in
      let g_par, _ =
        E.explore_with_stats ~max_states
          ~domains:(Domain.recommended_domain_count ())
          cfg
      in
      if not (same_graph g g_par) then
        disagree "seq/par graphs"
          (Printf.sprintf
             "sequential explorer: %d states (complete=%b), parallel: %d \
              states (complete=%b)"
             (Array.length g.states) g.complete
             (Array.length g_par.states)
             g_par.complete);
      if !disagreement = None then begin
        let flat = E.to_flat g in
        let verdicts =
          List.map
            (fun p ->
              let w = p.check g flat in
              let v =
                match w with
                | Some _ -> Violation
                | None -> if g.complete then Clean else Undecided
              in
              (* replay every witness through the runtime *)
              (match w with
              | Some w when deterministic -> (
                match witness_bundle ~seed:aseed g w with
                | None ->
                  disagree p.name "graph witness is unreachable from state 0"
                | Some b ->
                  let sprop =
                    match (w, p.rt_check) with
                    | Cycle _, _ -> Some S.Lasso
                    | State _, Some pred -> Some (S.Safety (pred inputs))
                    | State _, None -> None
                  in
                  (match sprop with
                  | Some sp ->
                    if not (S.hits sp b) then
                      disagree p.name
                        "graph witness does not reproduce under runtime \
                         replay"
                  | None -> ());
                  if !first_witness = None then
                    first_witness := Some (p.name, b))
              | _ -> ());
              (p, v))
            properties
        in
        (* randomized runtime probes vs the graph verdicts *)
        let any_probe_violation = ref false in
        for _probe = 1 to probes do
          let pseed = abs (Rng.int arng 0x3FFFFFFF) + 1 in
          let len = 64 + Rng.int arng 448 in
          let steps =
            if Rng.bool arng then Gen.steps arng ~n:pars.n ~len
            else Gen.burst_steps arng ~n:pars.n ~len
          in
          let crashes =
            if crash_probes && Rng.int arng 4 = 0 then
              Gen.crashes arng ~n:pars.n ~horizon:len
                ~max_crashes:(pars.n - 1)
            else [||]
          in
          let pb =
            {
              S.m = pars.m;
              ids = pars.ids;
              inputs;
              namings = pars.namings;
              crashes;
              steps;
              loop = [||];
              seed = pseed;
            }
          in
          List.iter
            (fun (p, v) ->
              match p.rt_check with
              | None -> ()
              | Some pred ->
                if S.hits (S.Safety (pred inputs)) pb then begin
                  match v with
                  | Clean ->
                    (* crash-free graph covers every probe run: crashes
                       only restrict schedules *)
                    disagree p.name
                      (Printf.sprintf
                         "probe (seed %d) violates but the complete graph \
                          is clean"
                         pseed)
                  | Undecided ->
                    any_probe_violation := true;
                    if !first_witness = None then
                      first_witness := Some (p.name, pb)
                  | Violation -> ()
                end)
            verdicts
        done;
        (* baseline twin: same instance through a known-good protocol *)
        (match twin with
        | Some f -> (
          match f pars inputs with
          | Some complaint -> disagree "baseline twin" complaint
          | None -> ())
        | None -> ());
        let violated =
          !any_probe_violation
          || List.exists (fun (_, v) -> v = Violation) verdicts
        in
        let open_ = List.exists (fun (_, v) -> v = Undecided) verdicts in
        if violated then incr violations
        else if open_ then incr undecided;
        if !disagreement = None then incr agreed
      end
    done;
    {
      attempts = !made;
      agreed = !agreed;
      violations = !violations;
      undecided = !undecided;
      by_boundary =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) boundary []);
      first_witness = !first_witness;
      disagreement = !disagreement;
    }
end
