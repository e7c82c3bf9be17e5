open Anonmem

let str = Printf.sprintf

type verdict =
  | Pass
  | Violation
  | Truncated
  | Deadline
  | Disagreement
  | Failed of string

let verdict_exit = function
  | Pass -> 0
  | Violation -> 1
  | Truncated -> 3
  | Disagreement -> 5
  | Deadline -> 6
  | Failed _ -> 7

let verdict_tag = function
  | Pass -> "pass"
  | Violation -> "violation"
  | Truncated -> "truncated"
  | Deadline -> "deadline"
  | Disagreement -> "disagreement"
  | Failed _ -> "failed"

let verdict_of_exit ~detail = function
  | 0 -> Pass
  | 1 -> Violation
  | 3 -> Truncated
  | 5 -> Disagreement
  | 6 -> Deadline
  | _ -> Failed detail

type outcome = {
  verdict : verdict;
  detail : string;
  configs : int;
  cached_configs : int;
  states : int;
  explored : int;
  stats : Check.Checker_stats.t list;
}

type check_state = {
  idx : int;  (* next configuration in the naming sweep *)
  states_done : int;  (* states the snapshot covers for config [idx] *)
  partial : bool;  (* a snapshot of config [idx] is on disk *)
  bad : bool;
  truncated : bool;
  saw_deadline : bool;
  acc_stats : Check.Checker_stats.t list;  (* rev *)
  acc_detail : string list;  (* rev *)
  cached : int;
  total_states : int;
  explored : int;
}

type progress = Start | Check_cursor of check_state

let start = Start
let progress_explored = function Start -> 0 | Check_cursor cs -> cs.explored

let after_crash ~snapshot = function
  | Start -> Start
  | Check_cursor cs ->
    (* if the checkpoint died with the slice, the current config restarts
       from scratch; completed configs live in the cursor and are kept *)
    Check_cursor { cs with partial = cs.partial && Sys.file_exists snapshot }

type slice = Done of outcome | Yield of progress

let init_cs =
  {
    idx = 0;
    states_done = 0;
    partial = false;
    bad = false;
    truncated = false;
    saw_deadline = false;
    acc_stats = [];
    acc_detail = [];
    cached = 0;
    total_states = 0;
    explored = 0;
  }

let ids_of n = Array.init n (fun i -> ((i + 1) * 17) + 1)

let render_verdicts vs =
  String.concat ", "
    (List.map
       (fun (name, ok) -> str "%s %s" name (if ok then "ok" else "VIOLATED"))
       vs)

(* ------------------------------------------------------------------ *)
(* check jobs: the coordctl naming sweep, sliced                       *)
(* ------------------------------------------------------------------ *)

module MkCheck (P : Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)

  (* All relative namings for 2 processes; rotations for more — the same
     sweep as [coordctl check], so verdicts are exchangeable. *)
  let namings_under_test ~n ~m =
    if n = 2 && m <= 5 then
      List.map (fun nm -> [| Naming.identity m; nm |]) (Naming.all m)
    else [ Array.init n (fun k -> Naming.rotation m k) ]

  let run_slice ?cache ?quantum ?deadline_left_s ?(salvage = false) ~snapshot
      ~(judge : E.graph -> (string * bool) list) ~(inputs : P.input array)
      (spec : Spec.t) (cs0 : check_state) : slice =
    let cfgs =
      List.map
        (fun namings -> { E.ids = ids_of spec.Spec.n; inputs; namings })
        (namings_under_test ~n:spec.Spec.n ~m:spec.Spec.m)
    in
    let ncfg = List.length cfgs in
    let finalize cs =
      let verdict =
        if cs.bad then Violation
        else if cs.saw_deadline then Deadline
        else if cs.truncated then Truncated
        else Pass
      in
      Done
        {
          verdict;
          detail = String.concat "; " (List.rev cs.acc_detail);
          configs = ncfg;
          cached_configs = cs.cached;
          states = cs.total_states;
          explored = cs.explored;
          stats = List.rev cs.acc_stats;
        }
    in
    let rec step cs =
      if cs.idx >= ncfg then finalize cs
      else begin
        let cfg = List.nth cfgs cs.idx in
        let fp, _ = E.fingerprint ~reduction:spec.Spec.reduction cfg in
        let ident = E.describe ~reduction:spec.Spec.reduction cfg in
        let hit =
          if cs.partial then None
          else Option.bind cache (fun c -> Cache.find c ~key:fp ~ident)
        in
        match hit with
        | Some e ->
          (* consecutive hits fold into one slice: a fully-cached job
             completes in a single slice with [explored = 0] *)
          step
            {
              cs with
              idx = cs.idx + 1;
              cached = cs.cached + 1;
              total_states = cs.total_states + e.Cache.n_states;
              bad = cs.bad || e.Cache.exit_code = 1;
              acc_detail = (e.Cache.detail ^ " [cached]") :: cs.acc_detail;
              acc_stats =
                (match e.Cache.stats with
                | Some s -> s :: cs.acc_stats
                | None -> cs.acc_stats);
            }
        | None ->
          let budget = spec.Spec.max_states in
          let cap =
            match (quantum, budget) with
            | Some q, Some b -> Some (min b (cs.states_done + q))
            | Some q, None -> Some (cs.states_done + q)
            | None, b -> b
          in
          let resume_from = if cs.partial then Some snapshot else None in
          let deadline_s = Option.map (Float.max 0.0) deadline_left_s in
          let g, st =
            match spec.Spec.engine with
            | Spec.Seq ->
              E.explore_with_stats ?max_states:cap
                ~reduction:spec.Spec.reduction ~snapshot_to:snapshot
                ?resume_from ?deadline_s ~salvage cfg
            | Spec.Par ->
              E.explore_par ?max_states:cap ~reduction:spec.Spec.reduction
                ~snapshot_to:snapshot ?resume_from ?deadline_s ~salvage cfg
          in
          let stt = st.Check.Checker_stats.n_states in
          let cs =
            { cs with explored = cs.explored + max 0 (stt - cs.states_done) }
          in
          let finish_config ~cacheable cs =
            let vs = judge g in
            let bad_here = List.exists (fun (_, ok) -> not ok) vs in
            let detail =
              str "cfg %d/%d (%d states%s): %s" (cs.idx + 1) ncfg stt
                (if g.E.complete then "" else ", truncated")
                (render_verdicts vs)
            in
            (* only complete explorations are cacheable: the fingerprint
               excludes the budget, so a truncated verdict would poison
               later, bigger-budget queries *)
            if cacheable && g.E.complete then
              Option.iter
                (fun c ->
                  Cache.add c ~key:fp
                    {
                      Cache.ident;
                      verdict = (if bad_here then "violation" else "pass");
                      exit_code = (if bad_here then 1 else 0);
                      detail;
                      n_states = stt;
                      stats = Some st;
                    })
                cache;
            (try Sys.remove snapshot with Sys_error _ -> ());
            {
              cs with
              idx = cs.idx + 1;
              partial = false;
              states_done = 0;
              bad = cs.bad || bad_here;
              total_states = cs.total_states + stt;
              acc_stats = st :: cs.acc_stats;
              acc_detail = detail :: cs.acc_detail;
            }
          in
          if g.E.complete then begin
            let cs = finish_config ~cacheable:true cs in
            if cs.idx >= ncfg then finalize cs else Yield (Check_cursor cs)
          end
          else begin
            match st.Check.Checker_stats.stop with
            | Check.Checker_stats.Deadline ->
              (* the job deadline expired: judge the explored prefix and
                 end the whole job (remaining configs are not attempted) *)
              let cs = finish_config ~cacheable:false cs in
              finalize { cs with saw_deadline = true; truncated = true }
            | Check.Checker_stats.Budget
              when (match budget with Some b -> stt >= b | None -> false) ->
              (* the per-config state budget: prefix verdict, move on *)
              let cs = finish_config ~cacheable:false cs in
              let cs = { cs with truncated = true } in
              if cs.idx >= ncfg then finalize cs else Yield (Check_cursor cs)
            | Check.Checker_stats.Budget | Check.Checker_stats.Interrupted ->
              (* preempted at a snapshot boundary (slice quantum or a stop
                 request): yield; a later slice resumes bit-identically *)
              Yield
                (Check_cursor { cs with partial = true; states_done = stt })
            | Check.Checker_stats.Oom | Check.Checker_stats.Disk_full ->
              (* degraded stop: resume from the flushed snapshot if one
                 made it to disk, else restart the config *)
              Yield
                (Check_cursor
                   {
                     cs with
                     partial = Sys.file_exists snapshot;
                     states_done = stt;
                   })
            | Check.Checker_stats.Completed -> assert false
          end
      end
    in
    step cs0
end

module Chk_mutex = MkCheck (Coord.Amutex.P)
module Chk_cmp_mutex = MkCheck (Coord.Cmp_mutex.P)
module Chk_consensus = MkCheck (Coord.Consensus.P)
module Chk_election = MkCheck (Coord.Election.P)
module Chk_renaming = MkCheck (Coord.Renaming.P)
module Chk_ccp = MkCheck (Coord.Ccp.P)

let check_slice ?cache ?quantum ?deadline_left_s ?salvage ~snapshot
    (spec : Spec.t) cs =
  let n = spec.Spec.n in
  match spec.Spec.proto with
  | Spec.Mutex ->
    let judge (g : Chk_mutex.E.graph) =
      let f = Chk_mutex.E.to_flat g in
      [
        ("mutual-exclusion", Check.Mutex_props.mutual_exclusion f = None);
        ("deadlock-freedom", Check.Mutex_props.deadlock_freedom f = None);
      ]
    in
    Chk_mutex.run_slice ?cache ?quantum ?deadline_left_s ?salvage ~snapshot
      ~judge ~inputs:(Array.make n ()) spec cs
  | Spec.Cmp_mutex ->
    let judge (g : Chk_cmp_mutex.E.graph) =
      let f = Chk_cmp_mutex.E.to_flat g in
      [
        ("mutual-exclusion", Check.Mutex_props.mutual_exclusion f = None);
        ("deadlock-freedom", Check.Mutex_props.deadlock_freedom f = None);
      ]
    in
    Chk_cmp_mutex.run_slice ?cache ?quantum ?deadline_left_s ?salvage
      ~snapshot ~judge ~inputs:(Array.make n ()) spec cs
  | Spec.Consensus ->
    let module C = Chk_consensus in
    let inputs = Array.init n (fun i -> (i + 1) * 100) in
    let judge (g : C.E.graph) =
      [
        ( "agreement",
          Check.Props.agreement ~equal:Int.equal ~statuses:C.E.statuses
            g.C.E.states
          = None );
        ( "validity",
          Check.Props.validity
            ~allowed:(fun v -> Array.exists (( = ) v) inputs)
            ~statuses:C.E.statuses g.C.E.states
          = None );
        ("of-termination", C.E.check_obstruction_freedom g = None);
      ]
    in
    C.run_slice ?cache ?quantum ?deadline_left_s ?salvage ~snapshot ~judge
      ~inputs spec cs
  | Spec.Election ->
    let module C = Chk_election in
    let ids = ids_of n in
    let judge (g : C.E.graph) =
      [
        ( "one-leader",
          Check.Props.agreement ~equal:Int.equal ~statuses:C.E.statuses
            g.C.E.states
          = None );
        ( "leader-participates",
          Check.Props.validity
            ~allowed:(fun v -> Array.exists (( = ) v) ids)
            ~statuses:C.E.statuses g.C.E.states
          = None );
        ("of-termination", C.E.check_obstruction_freedom g = None);
      ]
    in
    C.run_slice ?cache ?quantum ?deadline_left_s ?salvage ~snapshot ~judge
      ~inputs:(Array.make n ()) spec cs
  | Spec.Renaming ->
    let module C = Chk_renaming in
    let judge (g : C.E.graph) =
      [
        ( "uniqueness",
          Check.Props.distinct_outputs ~equal:Int.equal ~statuses:C.E.statuses
            g.C.E.states
          = None );
        ( "adaptivity",
          Check.Props.adaptive_range ~name_of:Fun.id ~statuses:C.E.statuses
            g.C.E.states
          = None );
        ("of-termination", C.E.check_obstruction_freedom g = None);
      ]
    in
    C.run_slice ?cache ?quantum ?deadline_left_s ?salvage ~snapshot ~judge
      ~inputs:(Array.make n ()) spec cs
  | Spec.Ccp ->
    let module C = Chk_ccp in
    let judge (g : C.E.graph) =
      (* agreement is on the physical register chosen *)
      let safe = ref true in
      Array.iter
        (fun st ->
          let phys =
            Array.to_list
              (Array.mapi
                 (fun p l ->
                   match Coord.Ccp.P.status l with
                   | Protocol.Decided loc ->
                     Some (Naming.apply g.C.E.cfg.namings.(p) loc)
                   | _ -> None)
                 st.C.E.locals)
            |> List.filter_map Fun.id
          in
          match phys with
          | a :: rest -> if List.exists (( <> ) a) rest then safe := false
          | [] -> ())
        g.C.E.states;
      [ ("same-register", !safe) ]
    in
    C.run_slice ?cache ?quantum ?deadline_left_s ?salvage ~snapshot ~judge
      ~inputs:(Array.make n ()) spec cs

(* ------------------------------------------------------------------ *)
(* fuzz jobs: the coordctl differential property suites               *)
(* ------------------------------------------------------------------ *)

module MkFuzz (P : Protocol.PROTOCOL) = struct
  module F = Check.Fuzz.Make (P)

  let run ~properties ~gen_inputs ~deterministic ?deadline_left_s
      (spec : Spec.t) : outcome =
    let attempts = Option.value spec.Spec.attempts ~default:200 in
    let r =
      F.run ~seed:spec.Spec.seed ~attempts ?time_budget:deadline_left_s
        ~max_states:(Option.value spec.Spec.max_states ~default:20_000)
        ~fixed:(Some spec.Spec.n, Some spec.Spec.m) ~deterministic
        ~properties ~gen_inputs ()
    in
    let detail =
      str "attempts=%d agreed=%d violations=%d undecided=%d" r.F.attempts
        r.F.agreed r.F.violations r.F.undecided
    in
    let verdict, detail =
      match r.F.disagreement with
      | Some d ->
        ( Disagreement,
          str "%s; DISAGREEMENT at attempt %d (%s): %s" detail d.F.attempt
            d.F.subject d.F.detail )
      | None ->
        if r.F.violations > 0 then (Violation, detail) else (Pass, detail)
    in
    {
      verdict;
      detail;
      configs = 1;
      cached_configs = 0;
      states = 0;
      explored = 0;
      stats = [];
    }
end

module Fz_mutex = MkFuzz (Coord.Amutex.P)
module Fz_cmp_mutex = MkFuzz (Coord.Cmp_mutex.P)
module Fz_consensus = MkFuzz (Coord.Consensus.P)
module Fz_election = MkFuzz (Coord.Election.P)
module Fz_renaming = MkFuzz (Coord.Renaming.P)
module Fz_ccp = MkFuzz (Coord.Ccp.P)

let unit_inputs _rng ~n = Array.make n ()

(* Election's leader-participates and ccp's same-register need instance
   data (the ids, the namings) on both the graph and the runtime side —
   mirrored from coordctl so serve and the CLI fuzz the same contracts. *)
let election_properties =
  let module D = Fz_election in
  [
    { (D.F.agreement ~equal:Int.equal) with D.F.name = "one-leader" };
    {
      D.F.name = "leader-participates";
      check =
        (fun g _ ->
          Option.map
            (fun (d : int Check.Props.decided) ->
              D.F.State d.Check.Props.state)
            (Check.Props.validity
               ~allowed:(fun v -> Array.exists (( = ) v) g.D.F.E.cfg.ids)
               ~statuses:D.F.E.statuses g.D.F.E.states));
      rt_check =
        Some
          (fun _ rt ->
            let ds = D.F.S.R.decisions rt in
            let ids =
              Array.init (Array.length ds) (fun i -> D.F.S.R.id_of rt i)
            in
            Array.exists
              (function
                | Some v -> not (Array.exists (( = ) v) ids)
                | None -> false)
              ds);
    };
  ]

let ccp_properties =
  let module D = Fz_ccp in
  [
    {
      D.F.name = "same-register";
      check =
        (fun g _ ->
          let bad = ref None in
          Array.iteri
            (fun si st ->
              if !bad = None then begin
                let phys =
                  List.filter_map Fun.id
                    (Array.to_list
                       (Array.mapi
                          (fun p status ->
                            match status with
                            | Protocol.Decided loc ->
                              Some (Naming.apply g.D.F.E.cfg.namings.(p) loc)
                            | _ -> None)
                          (D.F.E.statuses st)))
                in
                match phys with
                | a :: rest when List.exists (( <> ) a) rest ->
                  bad := Some (D.F.State si)
                | _ -> ()
              end)
            g.D.F.E.states;
          !bad);
      rt_check =
        Some
          (fun _ rt ->
            let n = D.F.S.R.n rt in
            let phys =
              List.filter_map
                (fun i ->
                  match D.F.S.R.status rt i with
                  | Protocol.Decided loc ->
                    Some (Naming.apply (D.F.S.R.naming_of rt i) loc)
                  | _ -> None)
                (List.init n Fun.id)
            in
            match phys with
            | a :: rest -> List.exists (( <> ) a) rest
            | [] -> false);
    };
  ]

let fuzz_run ?deadline_left_s (spec : Spec.t) : outcome =
  match spec.Spec.proto with
  | Spec.Mutex ->
    Fz_mutex.run
      ~properties:[ Fz_mutex.F.mutex_me; Fz_mutex.F.mutex_df ]
      ~gen_inputs:unit_inputs ~deterministic:true ?deadline_left_s spec
  | Spec.Cmp_mutex ->
    Fz_cmp_mutex.run
      ~properties:[ Fz_cmp_mutex.F.mutex_me; Fz_cmp_mutex.F.mutex_df ]
      ~gen_inputs:unit_inputs ~deterministic:true ?deadline_left_s spec
  | Spec.Consensus ->
    Fz_consensus.run
      ~properties:
        [
          Fz_consensus.F.agreement ~equal:Int.equal;
          Fz_consensus.F.validity ~allowed:(fun inputs v ->
              Array.exists (( = ) v) inputs);
        ]
      ~gen_inputs:(fun rng ~n -> Array.init n (fun _ -> 100 * (1 + Rng.int rng n)))
      ~deterministic:true ?deadline_left_s spec
  | Spec.Election ->
    Fz_election.run ~properties:election_properties ~gen_inputs:unit_inputs
      ~deterministic:true ?deadline_left_s spec
  | Spec.Renaming ->
    Fz_renaming.run
      ~properties:
        [
          {
            (Fz_renaming.F.distinct_outputs ~equal:Int.equal) with
            Fz_renaming.F.name = "uniqueness";
          };
        ]
      ~gen_inputs:unit_inputs ~deterministic:true ?deadline_left_s spec
  | Spec.Ccp ->
    Fz_ccp.run ~properties:ccp_properties ~gen_inputs:unit_inputs
      ~deterministic:false ?deadline_left_s spec

(* ------------------------------------------------------------------ *)
(* hunt jobs                                                           *)
(* ------------------------------------------------------------------ *)

module MkHunt (P : Protocol.PROTOCOL) = struct
  module H = Check.Hunt.Make (P)

  let run ~violation ~(inputs : P.input list) (spec : Spec.t) : outcome =
    let attempts = Option.value spec.Spec.attempts ~default:400 in
    let o, _trace =
      H.hunt ~strategy:spec.Spec.strategy ~attempts
        ~steps_per_attempt:spec.Spec.steps ~seed:spec.Spec.seed ~violation
        ~ids:(Array.to_list (ids_of spec.Spec.n))
        ~inputs ~m:spec.Spec.m ()
    in
    let base =
      {
        verdict = Pass;
        detail = "";
        configs = 1;
        cached_configs = 0;
        states = 0;
        explored = 0;
        stats = [];
      }
    in
    match o.Check.Hunt.witness_seed with
    | Some s ->
      {
        base with
        verdict = Violation;
        detail =
          str "witness seed %d after %d attempts (%d steps)" s
            o.Check.Hunt.attempts_made o.Check.Hunt.steps_taken;
      }
    | None ->
      {
        base with
        detail =
          str "no violation in %d attempts (%d steps)"
            o.Check.Hunt.attempts_made o.Check.Hunt.steps_taken;
      }
end

module Hn_mutex = MkHunt (Coord.Amutex.P)
module Hn_cmp_mutex = MkHunt (Coord.Cmp_mutex.P)
module Hn_consensus = MkHunt (Coord.Consensus.P)
module Hn_election = MkHunt (Coord.Election.P)
module Hn_renaming = MkHunt (Coord.Renaming.P)
module Hn_ccp = MkHunt (Coord.Ccp.P)

let hunt_run (spec : Spec.t) : outcome =
  let n = spec.Spec.n in
  let units = List.init n (fun _ -> ()) in
  match spec.Spec.proto with
  | Spec.Mutex ->
    Hn_mutex.run ~violation:Hn_mutex.H.mutex_violation ~inputs:units spec
  | Spec.Cmp_mutex ->
    Hn_cmp_mutex.run ~violation:Hn_cmp_mutex.H.mutex_violation ~inputs:units
      spec
  | Spec.Consensus ->
    Hn_consensus.run
      ~violation:(Hn_consensus.H.disagreement ~equal:Int.equal)
      ~inputs:(List.init n (fun i -> (i + 1) * 100))
      spec
  | Spec.Election ->
    Hn_election.run
      ~violation:(Hn_election.H.disagreement ~equal:Int.equal)
      ~inputs:units spec
  | Spec.Renaming ->
    (* uniqueness: a violation is two EQUAL decided names. [disagreement]
       fires on a pair the predicate calls non-equal, so handing it (<>)
       as "equal" makes it fire exactly on duplicates. *)
    Hn_renaming.run
      ~violation:(Hn_renaming.H.disagreement ~equal:(fun a b -> a <> b))
      ~inputs:units spec
  | Spec.Ccp ->
    let violation rt =
      let module R = Hn_ccp.H.R in
      let n = R.n rt in
      let phys =
        List.filter_map
          (fun i ->
            match R.status rt i with
            | Protocol.Decided loc -> Some (Naming.apply (R.naming_of rt i) loc)
            | _ -> None)
          (List.init n Fun.id)
      in
      match phys with
      | a :: rest -> List.exists (( <> ) a) rest
      | [] -> false
    in
    Hn_ccp.run ~violation ~inputs:units spec

(* ------------------------------------------------------------------ *)
(* dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let run_slice ?cache ?quantum ?deadline_left_s ?(salvage = false) ~snapshot
    (spec : Spec.t) (p : progress) : slice =
  match spec.Spec.kind with
  | Spec.Check ->
    let cs = match p with Start -> init_cs | Check_cursor cs -> cs in
    check_slice ?cache ?quantum ?deadline_left_s ~salvage ~snapshot spec cs
  | Spec.Fuzz | Spec.Hunt -> (
    ignore quantum;
    ignore snapshot;
    let id = Spec.ident spec in
    let key = Digest.string id in
    match Option.bind cache (fun c -> Cache.find c ~key ~ident:id) with
    | Some e ->
      Done
        {
          verdict = verdict_of_exit ~detail:e.Cache.detail e.Cache.exit_code;
          detail = e.Cache.detail ^ " [cached]";
          configs = 1;
          cached_configs = 1;
          states = e.Cache.n_states;
          explored = 0;
          stats = [];
        }
    | None ->
      let o =
        match spec.Spec.kind with
        | Spec.Fuzz -> fuzz_run ?deadline_left_s spec
        | _ -> hunt_run spec
      in
      (* a fuzz campaign cut short by a wall-clock budget is not a
         deterministic function of its spec — don't memoize it *)
      let cacheable =
        (match spec.Spec.kind with
        | Spec.Fuzz -> deadline_left_s = None
        | _ -> true)
        && match o.verdict with Failed _ -> false | _ -> true
      in
      if cacheable then
        Option.iter
          (fun c ->
            Cache.add c ~key
              {
                Cache.ident = id;
                verdict = verdict_tag o.verdict;
                exit_code = verdict_exit o.verdict;
                detail = o.detail;
                n_states = o.states;
                stats = None;
              })
          cache;
      Done o)
