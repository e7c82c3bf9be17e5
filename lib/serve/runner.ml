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

let render_verdicts vs =
  String.concat ", "
    (List.map
       (fun (name, ok) -> str "%s %s" name (if ok then "ok" else "VIOLATED"))
       vs)

(* a fuzz or hunt job: one unexplored configuration *)
let single verdict detail =
  {
    verdict;
    detail;
    configs = 1;
    cached_configs = 0;
    states = 0;
    explored = 0;
    stats = [];
  }

module Job (X : Protocols.ENTRY) = struct
  module E = Check.Explore.Make (X.P)
  module F = Check.Fuzz.Make (X.P)
  module H = Check.Hunt.Make (X.P)

  (* ---------------------------------------------------------------- *)
  (* check jobs: the naming sweep, sliced                              *)
  (* ---------------------------------------------------------------- *)

  let check_slice ?cache ?quantum ?deadline_left_s ~salvage ?domains
      ?snapshot_every ?resume ~recover ?snapshot ~on_config (spec : Spec.t)
      cs0 =
    let n = spec.Spec.n and reduction = spec.Spec.reduction in
    let cfgs =
      Array.of_list
        (List.map
           (fun namings ->
             { E.ids = Protocols.ids ~n; inputs = X.inputs ~n; namings })
           (Protocols.namings_under_test ~n ~m:spec.Spec.m))
    in
    let ncfg = Array.length cfgs in
    let fingerprint i = E.fingerprint ~reduction cfgs.(i) in
    (* a resumed snapshot belongs to the configuration whose fingerprint
       it carries; matching none of them is a rejection *)
    let resume_at =
      Option.map
        (fun path ->
          let meta = Check.Snapshot.read_meta ~path in
          match
            List.find_opt
              (fun i -> fst (fingerprint i) = meta.Check.Snapshot.fingerprint)
              (List.init ncfg Fun.id)
          with
          | Some i -> (i, path)
          | None ->
            raise
              (Check.Snapshot.Error
                 (Check.Snapshot.Config_mismatch
                    {
                      path;
                      snapshot = meta.Check.Snapshot.descr;
                      current = snd (fingerprint 0);
                    })))
        resume
    in
    let t0 = Check.Checker_stats.now () in
    let remove_snapshot () =
      Option.iter (fun s -> try Sys.remove s with Sys_error _ -> ()) snapshot
    in
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
        let cfg = cfgs.(cs.idx) in
        let fp, _ = fingerprint cs.idx in
        let ident = E.describe ~reduction cfg in
        let hit =
          if cs.partial then None
          else Option.bind cache (fun c -> Cache.find c ~key:fp ~ident)
        in
        match hit with
        | Some e ->
          on_config (e.Cache.detail ^ " [cached]") e.Cache.stats;
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
        | None -> explore_config cs cfg ~fp ~ident
      end
    and explore_config cs cfg ~fp ~ident =
      let budget = spec.Spec.max_states in
      let cap =
        match (quantum, budget) with
        | Some q, Some b -> Some (min b (cs.states_done + q))
        | Some q, None -> Some (cs.states_done + q)
        | None, b -> b
      in
      let resume_from =
        if cs.partial then snapshot
        else
          match resume_at with
          | Some (i, path) when i = cs.idx -> Some path
          | _ -> None
      in
      (* the deadline bounds the whole job, not each configuration *)
      let deadline_s =
        Option.map
          (fun d -> Float.max 0.0 (d -. (Check.Checker_stats.now () -. t0)))
          deadline_left_s
      in
      let domains =
        match spec.Spec.engine with
        | Spec.Seq -> 1
        | Spec.Par ->
          Option.value domains ~default:(Domain.recommended_domain_count ())
      in
      let run ~resume_from ~snapshot_to =
        E.explore_with_stats ?max_states:cap ~domains ~reduction
          ?snapshot_every ?snapshot_to ?resume_from ?deadline_s ~salvage cfg
      in
      let g, st =
        match snapshot with
        | Some snap when recover ->
          (* fault campaign: transient infrastructure failures retry from
             the newest salvageable checkpoint *)
          E.with_recovery ?resume_from ~snapshot_to:snap
            (fun ~resume_from ~snapshot_to ->
              run ~resume_from ~snapshot_to:(Some snapshot_to))
        | _ -> run ~resume_from ~snapshot_to:snapshot
      in
      let stt = st.Check.Checker_stats.n_states in
      let cs =
        { cs with explored = cs.explored + max 0 (stt - cs.states_done) }
      in
      (* judge the explored graph (a prefix when cut) and record its line *)
      let judged cs =
        let vs = X.verdicts g in
        let bad_here = List.exists (fun (_, ok) -> not ok) vs in
        let detail =
          str "namings %s: %d states%s, %s"
            (String.concat " "
               (List.map
                  (Format.asprintf "%a" Anonmem.Naming.pp)
                  (Array.to_list cfg.E.namings)))
            stt
            (if g.E.complete then "" else ", truncated")
            (render_verdicts vs)
        in
        on_config detail (Some st);
        (* only complete explorations are cacheable: the fingerprint
           excludes the budget, so a truncated verdict would poison
           later, bigger-budget queries *)
        if g.E.complete then
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
        {
          cs with
          idx = cs.idx + 1;
          partial = false;
          states_done = 0;
          bad = cs.bad || bad_here;
          truncated = cs.truncated || not g.E.complete;
          total_states = cs.total_states + stt;
          acc_stats = st :: cs.acc_stats;
          acc_detail = detail :: cs.acc_detail;
        }
      in
      (* a judged configuration's checkpoint is dead once the job moves
         on; the job keeps the checkpoint of the configuration it ends on
         incomplete *)
      let next cs =
        if g.E.complete || cs.idx < ncfg then remove_snapshot ();
        if cs.idx >= ncfg then finalize cs
        else if quantum = None then step cs
        else Yield (Check_cursor cs)
      in
      match st.Check.Checker_stats.stop with
      | Check.Checker_stats.Completed -> next (judged cs)
      | Check.Checker_stats.Deadline ->
        (* the job deadline expired: judge the explored prefix and end the
           whole job (remaining configs are not attempted) *)
        finalize { (judged cs) with saw_deadline = true }
      | Check.Checker_stats.Budget
        when quantum = None
             || match budget with Some b -> stt >= b | None -> false ->
        (* the per-config state budget: prefix verdict, move on *)
        next (judged cs)
      | (Check.Checker_stats.Budget | Check.Checker_stats.Interrupted)
        when quantum <> None ->
        (* preempted at a snapshot boundary (slice quantum or a stop
           request): yield; a later slice resumes bit-identically *)
        Yield (Check_cursor { cs with partial = true; states_done = stt })
      | (Check.Checker_stats.Oom | Check.Checker_stats.Disk_full)
        when quantum <> None ->
        (* degraded stop: resume from the flushed snapshot if one made it
           to disk, else restart the config *)
        Yield
          (Check_cursor
             {
               cs with
               partial =
                 (match snapshot with
                 | Some s -> Sys.file_exists s
                 | None -> false);
               states_done = stt;
             })
      | Check.Checker_stats.Budget | Check.Checker_stats.Interrupted
      | Check.Checker_stats.Oom | Check.Checker_stats.Disk_full ->
        (* unsliced: a stop request or a degraded stop ends the job here,
           judged on the explored prefix, checkpoint kept. A stop request
           is sticky, so resuming the slice would stop again at once. *)
        finalize (judged cs)
    in
    step cs0

  (* ---------------------------------------------------------------- *)
  (* fuzz and hunt jobs                                                *)
  (* ---------------------------------------------------------------- *)

  let fuzz ?deadline_left_s (spec : Spec.t) =
    let r =
      F.run ~seed:spec.Spec.seed
        ~attempts:(Option.value spec.Spec.attempts ~default:200)
        ?time_budget:deadline_left_s
        ~max_states:(Option.value spec.Spec.max_states ~default:20_000)
        ~fixed:(Some spec.Spec.n, Some spec.Spec.m)
        ~deterministic:X.deterministic ?twin:X.twin
        ~properties:X.fuzz_properties ~gen_inputs:X.gen_inputs ()
    in
    let detail =
      str "attempts=%d agreed=%d violations=%d undecided=%d" r.F.attempts
        r.F.agreed r.F.violations r.F.undecided
    in
    match r.F.disagreement with
    | Some d ->
      single Disagreement
        (str "%s; DISAGREEMENT at attempt %d (%s): %s" detail d.F.attempt
           d.F.subject d.F.detail)
    | None -> single (if r.F.violations > 0 then Violation else Pass) detail

  let hunt (spec : Spec.t) =
    let n = spec.Spec.n in
    let o, _trace =
      H.hunt ~strategy:spec.Spec.strategy
        ~attempts:(Option.value spec.Spec.attempts ~default:400)
        ~steps_per_attempt:spec.Spec.steps ~seed:spec.Spec.seed
        ~violation:X.hunt_violation
        ~ids:(Array.to_list (Protocols.ids ~n))
        ~inputs:(Array.to_list (X.inputs ~n))
        ~m:spec.Spec.m ()
    in
    match o.Check.Hunt.witness_seed with
    | Some s ->
      single Violation
        (str "witness seed %d after %d attempts (%d steps)" s
           o.Check.Hunt.attempts_made o.Check.Hunt.steps_taken)
    | None ->
      single Pass
        (str "no violation in %d attempts (%d steps)"
           o.Check.Hunt.attempts_made o.Check.Hunt.steps_taken)
end

(* ------------------------------------------------------------------ *)
(* dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let run_slice ?cache ?quantum ?deadline_left_s ?(salvage = false) ?domains
    ?snapshot_every ?resume ?(recover = false) ?snapshot
    ?(on_config = fun _ _ -> ()) (spec : Spec.t) (p : progress) : slice =
  let module X = (val Protocols.find spec.Spec.proto) in
  let module J = Job (X) in
  match spec.Spec.kind with
  | Spec.Check ->
    let cs = match p with Start -> init_cs | Check_cursor cs -> cs in
    J.check_slice ?cache ?quantum ?deadline_left_s ~salvage ?domains
      ?snapshot_every ?resume ~recover ?snapshot ~on_config spec cs
  | Spec.Fuzz | Spec.Hunt -> (
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
        | Spec.Fuzz -> J.fuzz ?deadline_left_s spec
        | _ -> J.hunt spec
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
