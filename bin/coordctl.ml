(* coordctl: command-line driver for the reproduction.

     coordctl tables [-e E4] [--full]       regenerate experiment tables
     coordctl simulate PROTO [-n N] ...     run a protocol under a schedule
     coordctl check PROTO [-n N] [-m M]     exhaustively model-check
     coordctl chaos PROTO [--crash P@K] ... crash-inject and check survivors
     coordctl symmetry [-n N] [-m M]        run the Thm 3.4 lock-step attack
     coordctl covering PROTO [-m M] ...     run the §6 covering adversary
     coordctl fuzz PROTO [--shrink] ...     differential fuzzing sweep
     coordctl shrink BUNDLE [--replay]      minimize / re-run a witness *)

open Anonmem

let str = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

(* Protocols, their names and default register counts come from the
   job-spec table the serving layer uses. *)
module Spec = Serve.Spec

let proto_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Spec.proto_of_string s) in
  let print ppf p = Format.pp_print_string ppf (Spec.proto_to_string p) in
  Cmdliner.Arg.conv (parse, print)

module Sim (P : Protocol.PROTOCOL) = struct
  module R = Runtime.Make (P)

  let run ~n ~m ~seed ~steps ~show_trace ~inputs =
    let rng = Rng.create seed in
    let cfg : R.config =
      {
        ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
        inputs;
        namings = Array.init n (fun _ -> Naming.random rng m);
        rng = Some (Rng.split rng);
        record_trace = show_trace;
      }
    in
    let rt = R.create cfg in
    Format.printf "protocol %s: n=%d m=%d seed=%d@." P.name n m seed;
    Array.iteri
      (fun i nm ->
        Format.printf "  p%d id=%d naming=%a@." i (R.id_of rt i) Naming.pp nm)
      cfg.namings;
    let reason = R.run rt (Schedule.random rng) ~max_steps:steps in
    Format.printf "stopped: %s after %d steps@."
      (match reason with
      | R.Schedule_exhausted -> "schedule exhausted"
      | All_decided -> "all decided"
      | Step_limit -> "step limit"
      | Condition_met -> "condition met")
      (R.clock rt);
    if show_trace then
      Format.printf "%a@."
        (Trace.pp ~pp_value:P.Value.pp ~pp_output:P.pp_output)
        (R.trace rt);
    Format.printf "final state:@.%a@." R.pp_state rt
end

let simulate (proto : Spec.proto) n m seed steps show_trace =
  let m = match m with Some m -> m | None -> Spec.default_m proto ~n in
  (match proto with
  | Mutex ->
    let module S = Sim (Coord.Amutex.P) in
    S.run ~n ~m ~seed ~steps ~show_trace ~inputs:(Array.make n ())
  | Cmp_mutex ->
    let module S = Sim (Coord.Cmp_mutex.P) in
    S.run ~n ~m ~seed ~steps ~show_trace ~inputs:(Array.make n ())
  | Consensus ->
    let module S = Sim (Coord.Consensus.P) in
    S.run ~n ~m ~seed ~steps ~show_trace
      ~inputs:(Array.init n (fun i -> (i + 1) * 100))
  | Election ->
    let module S = Sim (Coord.Election.P) in
    S.run ~n ~m ~seed ~steps ~show_trace ~inputs:(Array.make n ())
  | Renaming ->
    let module S = Sim (Coord.Renaming.P) in
    S.run ~n ~m ~seed ~steps ~show_trace ~inputs:(Array.make n ())
  | Ccp ->
    let module S = Sim (Coord.Ccp.P) in
    S.run ~n ~m ~seed ~steps ~show_trace ~inputs:(Array.make n ()));
  Ok 0

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

(* How the `check` command explores: sequential oracle by default; the
   frontier-parallel explorer with [--par]; checker statistics (states/sec,
   dedup hit-rate, shard load) with [--stats]; the symmetry quotient with
   [--canon] (sound for every protocol: verdicts coincide with the full
   graph's, see DESIGN.md §9). [--max-states] truncates; [--snapshot-dir]
   checkpoints each naming's exploration so a truncated or interrupted
   sweep can be resumed with [--resume] (see DESIGN.md §10). [--deadline]
   bounds wall clock; [--salvage]/[--inject-faults] are the self-healing
   surface (see DESIGN.md §12). *)
type chk_opts = {
  par : bool;
  domains : int option;
  stats : bool;
  reduction : Check.Explore.reduction;
  max_states : int option;
  snapshot_dir : string option;
  snapshot_every : int option;
  resume : string option;
  deadline_s : float option;
  salvage : bool;
  recover : bool;  (** wrap explorations in [with_recovery] (fault campaigns) *)
  saw_deadline : bool ref;
      (** set when any exploration in the sweep stopped on the deadline,
          so the driver can exit 6 rather than the generic truncated 3 *)
}

let default_chk_opts =
  {
    par = false;
    domains = None;
    stats = false;
    reduction = Check.Explore.Full;
    max_states = None;
    snapshot_dir = None;
    snapshot_every = None;
    resume = None;
    deadline_s = None;
    salvage = false;
    recover = false;
    saw_deadline = ref false;
  }

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

module Chk (P : Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)

  (* All relative namings for 2 processes; rotations for more. *)
  let namings_under_test ~n ~m =
    if n = 2 && m <= 5 then
      List.map (fun nm -> Array.of_list [ Naming.identity m; nm ]) (Naming.all m)
    else
      [ Array.init n (fun k -> Naming.rotation m k) ]

  let explore_one ?snapshot_to ?resume_from opts cfg =
    let run ~resume_from ~snapshot_to =
      if opts.par then
        E.explore_par ?max_states:opts.max_states ?domains:opts.domains
          ?snapshot_every:opts.snapshot_every ?snapshot_to ?resume_from
          ?deadline_s:opts.deadline_s ~salvage:opts.salvage
          ~reduction:opts.reduction cfg
      else
        E.explore_with_stats ?max_states:opts.max_states
          ?snapshot_every:opts.snapshot_every ?snapshot_to ?resume_from
          ?deadline_s:opts.deadline_s ~salvage:opts.salvage
          ~reduction:opts.reduction cfg
    in
    let g, st =
      match (opts.recover, snapshot_to) with
      | true, Some snap ->
        (* fault campaign: transient infrastructure failures (killed
           domain 0, allocation failure, corrupt checkpoint) retry from
           the newest salvageable snapshot instead of failing the sweep *)
        E.with_recovery ?resume_from ~snapshot_to:snap
          (fun ~resume_from ~snapshot_to ->
            run ~resume_from ~snapshot_to:(Some snapshot_to))
      | _ -> run ~resume_from ~snapshot_to
    in
    if st.Check.Checker_stats.stop = Check.Checker_stats.Deadline then
      opts.saw_deadline := true;
    if opts.stats then Format.printf "%a@." Check.Checker_stats.pp st;
    g

  (* Returns [true] if any exploration in the sweep was truncated. A
     [--resume] snapshot is matched to its naming assignment by config
     fingerprint; if no assignment in the sweep matches, the snapshot
     belongs to some other configuration and we refuse
     (Snapshot.Config_mismatch, exit 4). *)
  let explore_all ?(opts = default_chk_opts) ~n ~m ~inputs ~report () =
    if opts.reduction = Check.Explore.Canon && E.canon_degraded ~n then
      Format.printf
        "note: --canon degraded to the identity group (%s): exploring the \
         full graph, reduction factor 1.0.@."
        (if not P.symmetric then P.name ^ " is not a symmetric protocol"
         else str "n = %d exceeds the group-enumeration bound 7" n);
    let resume_meta =
      Option.map
        (fun path -> (path, Check.Snapshot.read_meta ~path))
        opts.resume
    in
    let resume_used = ref false in
    Option.iter ensure_dir opts.snapshot_dir;
    let count = ref 0 in
    let truncated = ref false in
    List.iter
      (fun namings ->
        incr count;
        let cfg : E.config =
          { ids = Array.init n (fun i -> ((i + 1) * 17) + 1); inputs; namings }
        in
        let fp, _descr = E.fingerprint ~reduction:opts.reduction cfg in
        let snapshot_to =
          Option.map
            (fun dir ->
              Filename.concat dir
                (str "%s-n%d-m%d-%d.snap" P.name n m !count))
            opts.snapshot_dir
        in
        let resume_from =
          match resume_meta with
          | Some (path, meta) when meta.Check.Snapshot.fingerprint = fp ->
            resume_used := true;
            Some path
          | _ -> None
        in
        let g = explore_one ?snapshot_to ?resume_from opts cfg in
        if not g.E.complete then truncated := true;
        report namings g)
      (namings_under_test ~n ~m);
    (match resume_meta with
    | Some (path, meta) when not !resume_used ->
      (* none of the swept configurations matches the snapshot *)
      let _, descr =
        E.fingerprint ~reduction:opts.reduction
          {
            ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
            inputs;
            namings = List.hd (namings_under_test ~n ~m);
          }
      in
      raise
        (Check.Snapshot.Error
           (Check.Snapshot.Config_mismatch
              { path; snapshot = meta.Check.Snapshot.descr; current = descr }))
    | _ -> ());
    Format.printf "%d naming assignment(s) checked.@." !count;
    !truncated
end

module Mutex_check (P : Protocol.PROTOCOL with type input = unit) = struct
  module C = Chk (P)

  (* Starvation is reported for information; only ME/DF count as
     violations, matching the paper's two requirements. *)
  let run ~opts ~n ~m =
    let bad = ref false in
    let truncated =
      C.explore_all ~opts ~n ~m ~inputs:(Array.make n ()) ()
        ~report:(fun namings g ->
        let f = C.E.to_flat g in
        let me = Check.Mutex_props.mutual_exclusion f in
        let df = Check.Mutex_props.deadlock_freedom f in
        let sf = Check.Mutex_props.starvation_freedom f in
        if me <> None || df <> None then bad := true;
        Format.printf "namings %s: %d states, mutual-exclusion %s, \
                       deadlock-freedom %s, starvation-freedom %s@."
          (String.concat " "
             (List.map (Format.asprintf "%a" Naming.pp) (Array.to_list namings)))
          (Array.length g.states)
          (match me with None -> "ok" | Some _ -> "VIOLATED")
          (match df with None -> "ok" | Some _ -> "VIOLATED")
            (match sf with
            | None -> "ok"
            | Some (p, _) -> str "p%d can starve" p))
    in
    (!bad, truncated)
end

let check_mutex ~opts ~n ~m =
  let module M = Mutex_check (Coord.Amutex.P) in
  M.run ~opts ~n ~m

let check_cmp_mutex ~opts ~n ~m =
  let module M = Mutex_check (Coord.Cmp_mutex.P) in
  M.run ~opts ~n ~m

let check_decision (type g) ~n ~m ~inputs
    ~(explore_all :
       inputs:'i array ->
       report:(Naming.t array -> g -> unit) ->
       bool) ~(verdicts : g -> (string * bool) list) =
  ignore n;
  ignore m;
  let bad = ref false in
  let truncated =
    explore_all ~inputs ~report:(fun namings g ->
        let vs = verdicts g in
        if List.exists (fun (_, ok) -> not ok) vs then bad := true;
        Format.printf "namings %s: %s@."
          (String.concat " "
             (List.map (Format.asprintf "%a" Naming.pp) (Array.to_list namings)))
          (String.concat ", "
             (List.map
                (fun (name, ok) ->
                  str "%s %s" name (if ok then "ok" else "VIOLATED"))
                vs)))
  in
  (!bad, truncated)

let reduction_of_flags ~canon ~no_canon =
  if canon && no_canon then
    failwith "--canon and --no-canon are mutually exclusive"
  else if canon then Check.Explore.Canon
  else Check.Explore.Full

(* Exit codes (also rendered in `coordctl check --help`): 0 all properties
   hold on a complete exploration; 1 a violation was found; 3 no violation
   but some exploration was truncated (the verdict covers only the explored
   prefix); 4 a --resume snapshot was rejected (corrupt, wrong version, or
   fingerprint mismatch with every swept configuration); 6 the --deadline
   expired (graceful stop at a generation boundary, snapshot flushed). *)
let check (proto : Spec.proto) n m par domains stats canon no_canon max_states
    snapshot_dir snapshot_every resume deadline salvage inject =
  let reduction = reduction_of_flags ~canon ~no_canon in
  (* --inject-faults SEED arms a deterministic infrastructure-fault plan
     and implies the rest of the self-healing stack: snapshot salvage,
     with_recovery retries, and somewhere to recover from — a private
     snapshot dir is synthesized when none was given. The plan seed is
     printed so the whole campaign can be replayed. *)
  let snapshot_dir =
    match (inject, snapshot_dir) with
    | Some _, None ->
      Some
        (Filename.concat
           (Filename.get_temp_dir_name ())
           (str "coordctl-inject-%d" (Unix.getpid ())))
    | _ -> snapshot_dir
  in
  let snapshot_every =
    (* tight checkpoint cadence so recovery has boundaries to resume from *)
    if inject <> None && snapshot_every = None then Some 1 else snapshot_every
  in
  (match inject with
  | Some seed ->
    let plan = Resilience.plan_of_seed ?domains seed in
    Resilience.arm plan;
    Format.printf "fault plan: %a@." Resilience.pp_plan plan
  | None -> ());
  let opts =
    {
      par;
      domains;
      stats;
      reduction;
      max_states;
      snapshot_dir;
      snapshot_every;
      resume;
      deadline_s = deadline;
      salvage = salvage || inject <> None;
      recover = inject <> None;
      saw_deadline = ref false;
    }
  in
  let m = match m with Some m -> m | None -> Spec.default_m proto ~n in
  let body () =
    match
      match proto with
    | Mutex -> check_mutex ~opts ~n ~m
    | Cmp_mutex -> check_cmp_mutex ~opts ~n ~m
    | Consensus ->
      let module C = Chk (Coord.Consensus.P) in
      let inputs = Array.init n (fun i -> (i + 1) * 100) in
      check_decision ~n ~m ~inputs
        ~explore_all:(fun ~inputs ~report ->
          C.explore_all ~opts ~n ~m ~inputs ~report ())
        ~verdicts:(fun g ->
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
          ])
    | Election ->
      let module C = Chk (Coord.Election.P) in
      let ids = Array.init n (fun i -> ((i + 1) * 17) + 1) in
      check_decision ~n ~m ~inputs:(Array.make n ())
        ~explore_all:(fun ~inputs ~report ->
          C.explore_all ~opts ~n ~m ~inputs ~report ())
        ~verdicts:(fun g ->
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
          ])
    | Renaming ->
      let module C = Chk (Coord.Renaming.P) in
      check_decision ~n ~m ~inputs:(Array.make n ())
        ~explore_all:(fun ~inputs ~report ->
          C.explore_all ~opts ~n ~m ~inputs ~report ())
        ~verdicts:(fun g ->
          [
            ( "uniqueness",
              Check.Props.distinct_outputs ~equal:Int.equal
                ~statuses:C.E.statuses g.C.E.states
              = None );
            ( "adaptivity",
              Check.Props.adaptive_range ~name_of:Fun.id
                ~statuses:C.E.statuses g.C.E.states
              = None );
            ("of-termination", C.E.check_obstruction_freedom g = None);
          ])
    | Ccp ->
      let module C = Chk (Coord.Ccp.P) in
      check_decision ~n ~m ~inputs:(Array.make n ())
        ~explore_all:(fun ~inputs ~report ->
          C.explore_all ~opts ~n ~m ~inputs ~report ())
        ~verdicts:(fun g ->
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
          [ ("same-register", !safe) ])
  with
  | exception Check.Snapshot.Error e ->
    Format.eprintf "coordctl: snapshot rejected: %s@."
      (Check.Snapshot.error_message e);
    Ok 4
  | bad, truncated ->
    if truncated then
      Format.eprintf
        "WARNING: exploration truncated (state budget, interrupt or \
         deadline); verdicts cover only the explored prefix.@.";
    if bad then begin
      Format.printf "RESULT: violations found.@.";
      Ok 1
    end
    else if !(opts.saw_deadline) then begin
      Format.printf "RESULT: no violation before the deadline \
                     (incomplete; snapshot flushed for --resume).@.";
      Ok 6
    end
    else if truncated then begin
      Format.printf "RESULT: no violation in the explored prefix \
                     (incomplete).@.";
      Ok 3
    end
    else begin
      Format.printf "RESULT: all properties hold.@.";
      Ok 0
    end
  in
  Fun.protect ~finally:Resilience.disarm (fun () ->
      if opts.snapshot_dir <> None then
        (* scoped, not leaked: previous SIGINT/SIGTERM dispositions are
           restored when the check returns (or raises) *)
        Check.Snapshot.with_signal_handlers body
      else body ())

(* ------------------------------------------------------------------ *)
(* adversaries                                                         *)
(* ------------------------------------------------------------------ *)

let symmetry n m show_trace =
  let module S = Lowerbound.Symmetry.Make (Coord.Amutex.P) in
  let ids = List.init n (fun i -> (i + 1) * 7) in
  let inputs = List.map (fun _ -> ()) ids in
  (match S.attack ~ids ~inputs ~m () with
  | None ->
    Format.printf
      "m=%d is relatively prime to every l <= %d: Theorem 3.4 permits an \
       algorithm; no lock-step attack exists.@."
      m n
  | Some (d, verdict, trace) ->
    Format.printf "divisor witness d=%d; rotated namings spaced m/d=%d \
                   apart; lock-step run says:@."
      d (m / d);
    Format.printf "  %a@." Lowerbound.Symmetry.pp_verdict verdict;
    if show_trace then
      Format.printf "%a@."
        (Trace.pp ~pp_value:Format.pp_print_int ~pp_output:Empty.pp)
        trace);
  Ok 0

let covering (proto : Spec.proto) m show_trace =
  (match proto with
  | Mutex ->
    let module Cov = Lowerbound.Covering.Make (Coord.Amutex.P) in
    (match Cov.construct ~m ~q_input:() ~recruit_input:(fun _ -> ()) () with
    | Error e -> Format.printf "construction failed: %s@." e
    | Ok o ->
      Format.printf "write set {%s}; q %a; recruit %d %a via %s@."
        (String.concat "," (List.map string_of_int o.write_set))
        Cov.pp_success o.q_success (o.p_proc - 1) Cov.pp_success o.p_success
        o.z_schedule_note;
      if show_trace then
        Format.printf "%a@."
          (Trace.pp ~pp_value:Format.pp_print_int ~pp_output:Empty.pp)
          o.trace)
  | Cmp_mutex ->
    let module Cov = Lowerbound.Covering.Make (Coord.Cmp_mutex.P) in
    (match Cov.construct ~m ~q_input:() ~recruit_input:(fun _ -> ()) () with
    | Error e -> Format.printf "construction failed: %s@." e
    | Ok o ->
      Format.printf "write set {%s}; q %a; recruit %d %a via %s@."
        (String.concat "," (List.map string_of_int o.write_set))
        Cov.pp_success o.q_success (o.p_proc - 1) Cov.pp_success o.p_success
        o.z_schedule_note;
      if show_trace then
        Format.printf "%a@."
          (Trace.pp ~pp_value:Format.pp_print_int ~pp_output:Empty.pp)
          o.trace)
  | Consensus | Election ->
    let module C2 = Wrap.Fix_n (Coord.Consensus.P) (struct let n = 2 end) in
    let module Cov = Lowerbound.Covering.Make (C2) in
    (match Cov.construct ~m ~q_input:100 ~recruit_input:(fun _ -> 200) () with
    | Error e -> Format.printf "construction failed: %s@." e
    | Ok o ->
      Format.printf "write set {%s}; q %a; recruit %d %a via %s@."
        (String.concat "," (List.map string_of_int o.write_set))
        Cov.pp_success o.q_success (o.p_proc - 1) Cov.pp_success o.p_success
        o.z_schedule_note;
      if show_trace then
        Format.printf "%a@."
          (Trace.pp ~pp_value:Coord.Consensus.Value.pp
             ~pp_output:Format.pp_print_int)
          o.trace)
  | Renaming ->
    let module R2 = Wrap.Fix_n (Coord.Renaming.P) (struct let n = 2 end) in
    let module Cov = Lowerbound.Covering.Make (R2) in
    (match Cov.construct ~m ~q_input:() ~recruit_input:(fun _ -> ()) () with
    | Error e -> Format.printf "construction failed: %s@." e
    | Ok o ->
      Format.printf "write set {%s}; q %a; recruit %d %a via %s@."
        (String.concat "," (List.map string_of_int o.write_set))
        Cov.pp_success o.q_success (o.p_proc - 1) Cov.pp_success o.p_success
        o.z_schedule_note;
      if show_trace then
        Format.printf "%a@."
          (Trace.pp ~pp_value:Coord.Renaming.Value.pp
             ~pp_output:Format.pp_print_int)
          o.trace)
  | Ccp -> Format.printf "covering targets read/write protocols only@.");
  Ok 0

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

(* Crash plans from the command line: repeatable --crash P@K,
   --crash-cs P and --rejoin P@K+D flags; with no flags, each attempt
   draws a fresh single crash (random process, random step). *)

let crash_spec_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ p; k ] -> (
      match (int_of_string_opt p, int_of_string_opt k) with
      | Some p, Some k -> Ok (p, k)
      | _ -> Error (`Msg (str "bad crash spec %S (want P@K)" s)))
    | _ -> Error (`Msg (str "bad crash spec %S (want P@K)" s))
  in
  let print ppf (p, k) = Format.fprintf ppf "%d@%d" p k in
  Cmdliner.Arg.conv (parse, print)

let rejoin_spec_conv =
  let parse s =
    let err = Error (`Msg (str "bad rejoin spec %S (want P@K+D)" s)) in
    match String.split_on_char '@' s with
    | [ p; rest ] -> (
      match String.split_on_char '+' rest with
      | [ k; d ] -> (
        match
          (int_of_string_opt p, int_of_string_opt k, int_of_string_opt d)
        with
        | Some p, Some k, Some d -> Ok (p, k, d)
        | _ -> err)
      | _ -> err)
    | _ -> err
  in
  let print ppf (p, k, d) = Format.fprintf ppf "%d@%d+%d" p k d in
  Cmdliner.Arg.conv (parse, print)

let chaos_ids n = List.init n (fun i -> ((i + 1) * 17) + 1)

(* With no explicit plan, each attempt draws one fresh random crash. *)
let plan_for_attempt master n prefix_steps = function
  | [] ->
    let proc = Rng.int master n in
    let after = Rng.int master (max 1 prefix_steps) in
    [ Fault.Crash_at_step { proc; after } ]
  | p -> p

let crashed_by_plan plan =
  List.filter_map
    (function
      | Fault.Crash_at_step { proc; _ } | Fault.Crash_in_critical { proc } ->
        Some proc
      | Fault.Crash_and_rejoin _ -> None)
    plan

module ChaosMutex (P : Protocol.PROTOCOL with type input = unit) = struct
  module CP = Check.Crash_props.Make (P)

  let run ~n ~m ~seed ~attempts ~prefix_steps ~plan =
    let ids = chaos_ids n in
    let inputs = List.init n (fun _ -> ()) in
    let master = Rng.create ((seed * 31) + 17) in
    for a = 1 to attempts do
      let aseed = seed + a in
      let plan = plan_for_attempt master n prefix_steps plan in
      Format.printf "attempt %d (seed %d): plan [%a]@." a aseed Fault.pp_plan
        plan;
      match
        List.find_opt
          (fun p -> not (List.mem p (crashed_by_plan plan)))
          (List.init n Fun.id)
      with
      | None -> Format.printf "  no survivor to probe@."
      | Some proc ->
        let wedged =
          CP.wedges_solo ~seed:aseed ~prefix_steps ~ids ~inputs ~m ~proc plan
        in
        Format.printf "  survivor p%d %s@." proc
          (if wedged then "WEDGED (expected for mutex: Theorem 6.2)"
           else "made progress")
    done;
    Format.printf "done (%d attempts).@." attempts;
    false
end

module ChaosDecide (P : Protocol.PROTOCOL with type output = int) = struct
  module CP = Check.Crash_props.Make (P)

  (* renaming-style tasks promise pairwise-distinct outputs rather than a
     common one *)
  let distinct_violation (r : CP.run_result) =
    let rec pairs = function
      | [] -> None
      | a :: rest -> (
        match List.find_opt (fun b -> snd a = snd b) rest with
        | Some b -> Some (a, b)
        | None -> pairs rest)
    in
    pairs r.CP.decided

  let run ?(distinct = false) ~n ~m ~seed ~attempts ~prefix_steps ~plan
      ~inputs () =
    let ids = chaos_ids n in
    let master = Rng.create ((seed * 31) + 17) in
    let bad = ref 0 in
    for a = 1 to attempts do
      let aseed = seed + a in
      let plan = plan_for_attempt master n prefix_steps plan in
      Format.printf "attempt %d (seed %d): plan [%a]@." a aseed Fault.pp_plan
        plan;
      let r = CP.run_plan ~seed:aseed ~prefix_steps ~ids ~inputs ~m plan in
      List.iter
        (fun ap -> Format.printf "  fired: %a@." Fault.pp_applied ap)
        r.CP.applied;
      List.iter
        (fun (i, v) -> Format.printf "  p%d decided %d@." i v)
        r.CP.decided;
      let of_ok = CP.crash_obstruction_free r in
      let safety =
        if distinct then distinct_violation r
        else CP.agreement_under_crashes ~equal:Int.equal r
      in
      if not of_ok then begin
        incr bad;
        Format.printf "  STUCK survivors: %s@."
          (String.concat ", " (List.map (fun i -> str "p%d" i) r.CP.stuck))
      end;
      (match safety with
      | Some ((i, u), (j, v)) ->
        incr bad;
        Format.printf "  %s: p%d=%d vs p%d=%d@."
          (if distinct then "NAME CLASH" else "DISAGREEMENT")
          i u j v
      | None -> ());
      if of_ok && safety = None then
        Format.printf "  crash-obstruction-freedom ok, %s ok@."
          (if distinct then "uniqueness" else "agreement")
    done;
    if !bad = 0 then
      Format.printf "all %d attempts clean under crashes.@." attempts
    else Format.printf "%d/%d attempts VIOLATED.@." !bad attempts;
    !bad > 0
end

let chaos (proto : Spec.proto) n m seed attempts prefix_steps crashes crash_cs
    rejoins =
  let m = match m with Some m -> m | None -> Spec.default_m proto ~n in
  let plan =
    List.map (fun (proc, after) -> Fault.Crash_at_step { proc; after }) crashes
    @ List.map (fun proc -> Fault.Crash_in_critical { proc }) crash_cs
    @ List.map
        (fun (proc, after, rejoin_delay) ->
          Fault.Crash_and_rejoin { proc; after; rejoin_delay })
        rejoins
  in
  List.iter
    (fun e ->
      let p =
        match e with
        | Fault.Crash_at_step { proc; _ }
        | Fault.Crash_in_critical { proc }
        | Fault.Crash_and_rejoin { proc; _ } ->
          proc
      in
      if p < 0 || p >= n then failwith (str "crash spec names p%d but n=%d" p n))
    plan;
  let bad =
    match proto with
    | Mutex ->
      let module C = ChaosMutex (Coord.Amutex.P) in
      C.run ~n ~m ~seed ~attempts ~prefix_steps ~plan
    | Cmp_mutex ->
      let module C = ChaosMutex (Coord.Cmp_mutex.P) in
      C.run ~n ~m ~seed ~attempts ~prefix_steps ~plan
    | Consensus ->
      let module C = ChaosDecide (Coord.Consensus.P) in
      C.run ~n ~m ~seed ~attempts ~prefix_steps ~plan
        ~inputs:(List.init n (fun i -> (i + 1) * 100))
        ()
    | Election ->
      let module C = ChaosDecide (Coord.Election.P) in
      C.run ~n ~m ~seed ~attempts ~prefix_steps ~plan
        ~inputs:(List.init n (fun _ -> ()))
        ()
    | Renaming ->
      let module C = ChaosDecide (Coord.Renaming.P) in
      C.run ~distinct:true ~n ~m ~seed ~attempts ~prefix_steps ~plan
        ~inputs:(List.init n (fun _ -> ()))
        ()
    | Ccp ->
      let module C = ChaosDecide (Coord.Ccp.P) in
      C.run ~n ~m ~seed ~attempts ~prefix_steps ~plan
        ~inputs:(List.init n (fun _ -> ()))
        ()
  in
  if bad then begin
    Format.printf "RESULT: violations found.@.";
    Ok 1
  end
  else begin
    Format.printf "RESULT: survivors coped with every crash.@.";
    Ok 0
  end

(* ------------------------------------------------------------------ *)
(* fuzz / shrink                                                       *)
(* ------------------------------------------------------------------ *)

(* Exit codes: 0 no violation, 1 violation found (witness optionally
   shrunk and written to the corpus), 5 engine disagreement — the
   explorers, the property checkers, the runtime and the baseline twin
   cross-validate each other, so 5 means a checker bug, not a protocol
   bug. *)
module Fz (P : Protocol.PROTOCOL) = struct
  module F = Check.Fuzz.Make (P)

  (* The shrinker's property for a named fuzz property: safety predicates
     are replayed directly; liveness witnesses are lassos. *)
  let sprop ~properties ~inputs name =
    match
      List.find_opt (fun (p : F.property) -> p.F.name = name) properties
    with
    | Some { F.rt_check = Some pred; _ } -> Some (F.S.Safety (pred inputs))
    | Some { F.rt_check = None; _ } -> Some F.S.Lasso
    | None -> None

  let write_bundle ~proto_name ~pname ~input_to_string ~path b =
    Check.Shrink.write_raw path
      (F.S.to_raw ~protocol:proto_name ~property_name:pname ~input_to_string b);
    Format.printf "wrote %s@." path

  let fuzz ~proto_name ~properties ~gen_inputs ~input_to_string ~deterministic
      ?twin ~n ~m ~attempts ~seconds ~seed ~max_states ~probes ~do_shrink
      ~corpus () =
    let report =
      F.run ~seed ~attempts ?time_budget:seconds ~max_states ~probes
        ~fixed:(n, m) ~deterministic ?twin ~properties ~gen_inputs ()
    in
    Format.printf "%a@." F.pp_report report;
    match report.F.disagreement with
    | Some _ ->
      Format.printf "RESULT: engines disagree (checker bug).@.";
      Ok 5
    | None ->
      if report.F.violations = 0 then begin
        Format.printf "RESULT: no violation in %d generated instance(s).@."
          report.F.attempts;
        Ok 0
      end
      else begin
        (match report.F.first_witness with
        | None -> ()
        | Some (pname, b0) ->
          let b =
            if do_shrink then begin
              match sprop ~properties ~inputs:b0.F.S.inputs pname with
              | Some sp -> (
                match F.S.shrink sp b0 with
                | b, stats ->
                  Format.printf "shrunk %s witness: %a@." pname F.S.pp_stats
                    stats;
                  b
                | exception Invalid_argument msg ->
                  Format.eprintf "cannot shrink: %s@." msg;
                  b0)
              | None -> b0
            end
            else b0
          in
          match corpus with
          | None -> ()
          | Some dir ->
            ensure_dir dir;
            let path =
              Filename.concat dir
                (str "%s-%s-seed%d.fuzz" proto_name pname seed)
            in
            write_bundle ~proto_name ~pname ~input_to_string ~path b);
        Format.printf "RESULT: violations found.@.";
        Ok 1
      end

  let shrink_file ~proto_name ~properties ~input_of_string ~input_to_string
      ~(raw : Check.Shrink.raw) ~replay_only ~out ~show_trace ~max_rounds path
      =
    let b = F.S.of_raw ~input_of_string raw in
    match sprop ~properties ~inputs:b.F.S.inputs raw.Check.Shrink.property with
    | None ->
      Format.eprintf "coordctl: unknown property %S for protocol %s@."
        raw.Check.Shrink.property proto_name;
      Ok 2
    | Some sp ->
      let hit, trace = F.S.replay sp b in
      if show_trace then
        Format.printf "%a@."
          (Trace.pp ~pp_value:P.Value.pp ~pp_output:P.pp_output)
          trace;
      if replay_only then begin
        Format.printf "replayed %d step(s): violation %s@."
          (Trace.length trace)
          (if hit then "reproduced" else "NOT reproduced");
        Ok (if hit then 0 else 1)
      end
      else if not hit then begin
        Format.eprintf
          "coordctl: bundle does not reproduce its violation; refusing to \
           shrink@.";
        Ok 1
      end
      else begin
        let b', stats = F.S.shrink ?max_rounds sp b in
        Format.printf "%a@." F.S.pp_stats stats;
        let out = Option.value out ~default:(path ^ ".min") in
        write_bundle ~proto_name ~pname:raw.Check.Shrink.property
          ~input_to_string ~path:out b';
        Ok 0
      end
end

(* Known-good baseline twins: the same property code must call them clean;
   a complaint is a checker bug (reported as a disagreement). *)

let peterson_twin : Check.Gen.params -> unit array -> string option =
  let verdict =
    lazy
      (let module FB = Check.Fuzz.Make (Baseline.Peterson.P) in
       let cfg : FB.E.config =
         {
           ids = [| 1; 2 |];
           inputs = [| (); () |];
           namings = Array.init 2 (fun _ -> Naming.identity 3);
         }
       in
       let g = FB.E.explore cfg in
       let flat = FB.E.to_flat g in
       if not g.FB.E.complete then None
       else if FB.mutex_me.FB.check g flat <> None then
         Some "checker claims Peterson violates mutual exclusion"
       else if FB.mutex_df.FB.check g flat <> None then
         Some "checker claims Peterson violates deadlock freedom"
       else None)
  in
  fun _ _ -> Lazy.force verdict

let ca_consensus_twin : Check.Gen.params -> int array -> string option =
  let memo = Hashtbl.create 8 in
  fun pars inputs ->
    let n = pars.Check.Gen.n in
    let key = (n, Array.to_list inputs) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r =
        let module FB = Check.Fuzz.Make (Baseline.Ca_consensus.P) in
        let m = Baseline.Ca_consensus.P.registers_for ~n ~rounds:2 in
        let cfg : FB.E.config =
          {
            ids = Array.init n (fun i -> i + 1);
            inputs;
            namings = Array.init n (fun _ -> Naming.identity m);
          }
        in
        let g = FB.E.explore ~max_states:50_000 cfg in
        let flat = FB.E.to_flat g in
        let agree = FB.agreement ~equal:Int.equal in
        let valid =
          FB.validity ~allowed:(fun ins v -> Array.exists (( = ) v) ins)
        in
        if not g.FB.E.complete then None (* budget: inconclusive, not a bug *)
        else if agree.FB.check g flat <> None then
          Some "checker claims CA consensus violates agreement"
        else if valid.FB.check g flat <> None then
          Some "checker claims CA consensus violates validity"
        else None
      in
      Hashtbl.add memo key r;
      r

let chain_renaming_twin : Check.Gen.params -> unit array -> string option =
  let memo = Hashtbl.create 4 in
  fun pars _inputs ->
    let n = pars.Check.Gen.n in
    match Hashtbl.find_opt memo n with
    | Some r -> r
    | None ->
      let r =
        let module FB = Check.Fuzz.Make (Baseline.Chain_renaming.P) in
        let m = (n - 1) * ((2 * n) - 1) in
        let cfg : FB.E.config =
          {
            ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
            inputs = Array.make n ();
            namings = Array.init n (fun _ -> Naming.identity m);
          }
        in
        let g = FB.E.explore ~max_states:50_000 cfg in
        let flat = FB.E.to_flat g in
        let uniq = FB.distinct_outputs ~equal:Int.equal in
        if not g.FB.E.complete then None
        else if uniq.FB.check g flat <> None then
          Some "checker claims chain renaming violates uniqueness"
        else None
      in
      Hashtbl.add memo n r;
      r

(* Per-protocol fuzz property suites. Election's leader-participates and
   ccp's same-register need instance data (the ids, the namings) on both
   the graph and the runtime side, so they are built here rather than in
   Check.Fuzz. *)

module Fuzz_mutex = Fz (Coord.Amutex.P)
module Fuzz_cmp_mutex = Fz (Coord.Cmp_mutex.P)
module Fuzz_consensus = Fz (Coord.Consensus.P)
module Fuzz_election = Fz (Coord.Election.P)
module Fuzz_renaming = Fz (Coord.Renaming.P)
module Fuzz_ccp = Fz (Coord.Ccp.P)

let mutex_properties = [ Fuzz_mutex.F.mutex_me; Fuzz_mutex.F.mutex_df ]

let cmp_mutex_properties =
  [ Fuzz_cmp_mutex.F.mutex_me; Fuzz_cmp_mutex.F.mutex_df ]

let consensus_properties =
  [
    Fuzz_consensus.F.agreement ~equal:Int.equal;
    Fuzz_consensus.F.validity ~allowed:(fun inputs v ->
        Array.exists (( = ) v) inputs);
  ]

let election_properties =
  let module D = Fuzz_election in
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

let renaming_properties =
  let module D = Fuzz_renaming in
  [
    {
      (D.F.distinct_outputs ~equal:Int.equal) with
      D.F.name = "uniqueness";
    };
  ]

(* ccp decides a local register index; correctness is that all decisions
   resolve to the same physical register through each process's naming. *)
let ccp_properties =
  let module D = Fuzz_ccp in
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

let consensus_gen_inputs rng ~n =
  Array.init n (fun _ -> 100 * (1 + Rng.int rng n))

let unit_inputs _rng ~n = Array.make n ()

let fuzz (proto : Spec.proto) n m attempts seconds seed max_states probes
    do_shrink corpus deadline =
  (* --deadline is the cross-command wall-clock bound; for fuzz it maps
     onto the existing per-campaign seconds budget (tighter of the two) *)
  let seconds =
    match (seconds, deadline) with
    | Some s, Some d -> Some (Float.min s d)
    | None, d -> d
    | s, None -> s
  in
  let common d = (d ~n ~m ~attempts ~seconds ~seed ~max_states ~probes
                    ~do_shrink ~corpus) () in
  match proto with
  | Mutex ->
    common
      (Fuzz_mutex.fuzz ~proto_name:"mutex" ~properties:mutex_properties
         ~gen_inputs:unit_inputs
         ~input_to_string:(fun () -> "-")
         ~deterministic:true ~twin:peterson_twin)
  | Cmp_mutex ->
    common
      (Fuzz_cmp_mutex.fuzz ~proto_name:"cmp-mutex"
         ~properties:cmp_mutex_properties ~gen_inputs:unit_inputs
         ~input_to_string:(fun () -> "-")
         ~deterministic:true ?twin:None)
  | Consensus ->
    common
      (Fuzz_consensus.fuzz ~proto_name:"consensus"
         ~properties:consensus_properties ~gen_inputs:consensus_gen_inputs
         ~input_to_string:string_of_int ~deterministic:true
         ~twin:ca_consensus_twin)
  | Election ->
    common
      (Fuzz_election.fuzz ~proto_name:"election"
         ~properties:election_properties ~gen_inputs:unit_inputs
         ~input_to_string:(fun () -> "-")
         ~deterministic:true ?twin:None)
  | Renaming ->
    common
      (Fuzz_renaming.fuzz ~proto_name:"renaming"
         ~properties:renaming_properties ~gen_inputs:unit_inputs
         ~input_to_string:(fun () -> "-")
         ~deterministic:true ~twin:chain_renaming_twin)
  | Ccp ->
    common
      (Fuzz_ccp.fuzz ~proto_name:"ccp" ~properties:ccp_properties
         ~gen_inputs:unit_inputs
         ~input_to_string:(fun () -> "-")
         ~deterministic:false ?twin:None)

let unit_of_string = function
  | "-" -> ()
  | s -> failwith (str "expected unit input \"-\", got %S" s)

let shrink path replay_only out show_trace max_rounds =
  match Check.Shrink.read_raw path with
  | Error msg ->
    Format.eprintf "coordctl: %s@." msg;
    Ok 2
  | Ok raw -> (
    let common d =
      d ~raw ~replay_only ~out ~show_trace ~max_rounds path
    in
    match raw.Check.Shrink.protocol with
    | "mutex" ->
      common
        (Fuzz_mutex.shrink_file ~proto_name:"mutex"
           ~properties:mutex_properties ~input_of_string:unit_of_string
           ~input_to_string:(fun () -> "-"))
    | "cmp-mutex" ->
      common
        (Fuzz_cmp_mutex.shrink_file ~proto_name:"cmp-mutex"
           ~properties:cmp_mutex_properties ~input_of_string:unit_of_string
           ~input_to_string:(fun () -> "-"))
    | "consensus" ->
      common
        (Fuzz_consensus.shrink_file ~proto_name:"consensus"
           ~properties:consensus_properties ~input_of_string:int_of_string
           ~input_to_string:string_of_int)
    | "election" ->
      common
        (Fuzz_election.shrink_file ~proto_name:"election"
           ~properties:election_properties ~input_of_string:unit_of_string
           ~input_to_string:(fun () -> "-"))
    | "renaming" ->
      common
        (Fuzz_renaming.shrink_file ~proto_name:"renaming"
           ~properties:renaming_properties ~input_of_string:unit_of_string
           ~input_to_string:(fun () -> "-"))
    | "ccp" ->
      common
        (Fuzz_ccp.shrink_file ~proto_name:"ccp" ~properties:ccp_properties
           ~input_of_string:unit_of_string
           ~input_to_string:(fun () -> "-"))
    | p ->
      Format.eprintf "coordctl: unknown protocol %S in %s@." p path;
      Ok 2)

(* ------------------------------------------------------------------ *)
(* graph export                                                        *)
(* ------------------------------------------------------------------ *)

let graph (proto : Spec.proto) n m output =
  let m = match m with Some m -> m | None -> Spec.default_m proto ~n in
  let write_dot flat =
    let oc = open_out output in
    let ppf = Format.formatter_of_out_channel oc in
    Check.Dot.of_flat flat ppf ();
    Format.pp_print_flush ppf ();
    close_out oc;
    Format.printf "wrote %s@." output
  in
  let flat_of (type g) ~(explore : unit -> g) ~(to_flat : g -> Check.Flatgraph.t) =
    to_flat (explore ())
  in
  (match proto with
  | Mutex ->
    let module C = Chk (Coord.Amutex.P) in
    write_dot
      (flat_of
         ~explore:(fun () ->
           C.E.explore
             {
               ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
               inputs = Array.make n ();
               namings = Array.init n (fun k -> Naming.rotation m k);
             })
         ~to_flat:C.E.to_flat)
  | Cmp_mutex ->
    let module C = Chk (Coord.Cmp_mutex.P) in
    write_dot
      (flat_of
         ~explore:(fun () ->
           C.E.explore
             {
               ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
               inputs = Array.make n ();
               namings = Array.init n (fun k -> Naming.rotation m k);
             })
         ~to_flat:C.E.to_flat)
  | Consensus ->
    let module C = Chk (Coord.Consensus.P) in
    write_dot
      (flat_of
         ~explore:(fun () ->
           C.E.explore
             {
               ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
               inputs = Array.init n (fun i -> (i + 1) * 100);
               namings = Array.init n (fun k -> Naming.rotation m k);
             })
         ~to_flat:C.E.to_flat)
  | Election ->
    let module C = Chk (Coord.Election.P) in
    write_dot
      (flat_of
         ~explore:(fun () ->
           C.E.explore
             {
               ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
               inputs = Array.make n ();
               namings = Array.init n (fun k -> Naming.rotation m k);
             })
         ~to_flat:C.E.to_flat)
  | Renaming ->
    let module C = Chk (Coord.Renaming.P) in
    write_dot
      (flat_of
         ~explore:(fun () ->
           C.E.explore
             {
               ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
               inputs = Array.make n ();
               namings = Array.init n (fun k -> Naming.rotation m k);
             })
         ~to_flat:C.E.to_flat)
  | Ccp ->
    let module C = Chk (Coord.Ccp.P) in
    write_dot
      (flat_of
         ~explore:(fun () ->
           C.E.explore
             {
               ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
               inputs = Array.make n ();
               namings = Array.init n (fun k -> Naming.rotation m k);
             })
         ~to_flat:C.E.to_flat));
  Ok 0

(* ------------------------------------------------------------------ *)
(* tables                                                              *)
(* ------------------------------------------------------------------ *)

let tables ids full =
  let speed = if full then Report.Experiments.Full else Quick in
  let selected =
    match ids with
    | [] -> Report.Experiments.all speed
    | ids ->
      List.concat_map
        (fun id ->
          match Report.Experiments.by_id id with
          | Some f -> f speed
          | None -> failwith (str "unknown experiment %S" id))
        ids
  in
  Report.Table.render_all Format.std_formatter selected;
  Ok 0

(* ------------------------------------------------------------------ *)
(* explore / bench                                                     *)
(* ------------------------------------------------------------------ *)

(* Single-configuration exploration with the statistics always on — the
   direct CLI surface for the symmetry quotient ([--canon]) and the
   frontier-parallel explorer ([--par]). Identity namings by default so
   process symmetry is visible; [--rot] switches to the rotation tuple. *)
module Xpl (P : Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)

  let config ~n ~m ~rot ~(inputs : P.input array) : E.config =
    {
      ids = Array.init n (fun i -> ((i + 1) * 17) + 1);
      inputs;
      namings =
        Array.init n (fun k ->
            if rot then Naming.rotation m k else Naming.identity m);
    }

  let explore ~n ~m ~rot ~inputs ~reduction ~par ~domains ~max_states ~depths
      ~snapshot_to ~snapshot_every ~resume_from ~deadline_s ~salvage
      ~disk_visited ~disk_hot_cap ~disk_quota ~recover =
    if reduction = Check.Explore.Canon && E.canon_degraded ~n then
      Format.printf
        "note: --canon degraded to the identity group (%s): exploring the \
         full graph, reduction factor 1.0.@."
        (if not P.symmetric then P.name ^ " is not a symmetric protocol"
         else str "n = %d exceeds the group-enumeration bound 7" n);
    let cfg = config ~n ~m ~rot ~inputs in
    if disk_visited <> None && par then
      failwith
        "--disk-visited is a sequential external-memory mode; drop --par";
    let run ~resume_from ~snapshot_to =
      match disk_visited with
      | Some dir ->
        (* external-memory mode: the visited set spills to sorted runs
           under [dir]; statistics-only (the graph never fits in RAM,
           which is the point), sequential by construction *)
        E.explore_external ?max_states ?snapshot_every ?snapshot_to
          ?resume_from ?deadline_s ?hot_cap:disk_hot_cap
          ?disk_quota_bytes:disk_quota ~salvage ~reduction ~dir cfg
      | None when par ->
        snd
          (E.explore_par ?max_states ?domains ?snapshot_every ?snapshot_to
             ?resume_from ?deadline_s ~salvage ~reduction cfg)
      | None ->
        snd
          (E.explore_with_stats ?max_states ?snapshot_every ?snapshot_to
             ?resume_from ?deadline_s ~salvage ~reduction cfg)
    in
    let st =
      match (recover, snapshot_to) with
      | true, Some snap ->
        (* fault campaign: injected faults fire at most once, so a retry
           from the newest checkpoint converges (DESIGN.md §14). Budget
           one retry per armed fault (a whole plan can gang up on this
           single run) on top of the usual three. *)
        snd
          (E.with_recovery
             ~max_retries:(3 + List.length (Resilience.pending ()))
             ?resume_from ~snapshot_to:snap
             (fun ~resume_from ~snapshot_to ->
               ((), run ~resume_from ~snapshot_to:(Some snapshot_to))))
      | _ -> run ~resume_from ~snapshot_to
    in
    Format.printf "%a@." Check.Checker_stats.pp st;
    if depths then Format.printf "%a@." Check.Checker_stats.pp_depths st;
    st

  (* One benchmark line: the full graph, then (unless [--no-canon]) the
     symmetry quotient of the same configuration, with the quotient's
     verdict-preserving reduction factor. *)
  let bench_line ~label ~n ~m ~rot ~inputs ~reduction ~max_states =
    let cfg = config ~n ~m ~rot ~inputs in
    let _, full = E.explore_with_stats ?max_states cfg in
    let tput = Check.Checker_stats.states_per_sec in
    match reduction with
    | Check.Explore.Full ->
      Format.printf "%-18s full %8d states %9.0f st/s%s@." label
        full.Check.Checker_stats.n_states (tput full)
        (if full.Check.Checker_stats.complete then "" else " (truncated)")
    | Check.Explore.Canon ->
      let _, quot = E.explore_with_stats ?max_states ~reduction cfg in
      Format.printf
        "%-18s full %8d states %9.0f st/s | quotient %8d states %9.0f st/s \
         (group %d, reduction %.2fx)%s@."
        label full.Check.Checker_stats.n_states (tput full)
        quot.Check.Checker_stats.n_states (tput quot)
        quot.Check.Checker_stats.group_order
        (Check.Checker_stats.reduction_factor quot)
        (if full.Check.Checker_stats.complete then "" else " (full truncated)")
end

let explore (proto : Spec.proto) n m rot par domains canon no_canon max_states
    depths snapshot_to snapshot_every resume_from deadline_s salvage inject
    disk_faults disk_quota disk_visited disk_hot_cap =
  let reduction = reduction_of_flags ~canon ~no_canon in
  (* --inject-faults on explore mirrors `check`: the plan is printed for
     replay, a private checkpoint file is synthesized when none was given
     (recovery needs somewhere to resume from), and the run is wrapped in
     with_recovery. --disk-faults widens the plan pool with storage
     faults (DESIGN.md §14). *)
  let snapshot_to =
    match (inject, snapshot_to) with
    | Some _, None ->
      Some
        (Filename.concat
           (Filename.get_temp_dir_name ())
           (str "coordctl-inject-%d.snap" (Unix.getpid ())))
    | _ -> snapshot_to
  in
  let snapshot_every =
    if inject <> None && snapshot_every = None then Some 1 else snapshot_every
  in
  (match inject with
  | Some seed ->
    let plan = Resilience.plan_of_seed ?domains ~disk:disk_faults seed in
    Resilience.arm plan;
    Format.printf "fault plan: %a@." Resilience.pp_plan plan
  | None -> ());
  let salvage = salvage || inject <> None in
  let recover = inject <> None in
  let m = match m with Some m -> m | None -> Spec.default_m proto ~n in
  let body () =
    match
      match proto with
    | Mutex ->
      let module X = Xpl (Coord.Amutex.P) in
      X.explore ~n ~m ~rot ~inputs:(Array.make n ()) ~reduction ~par ~domains
        ~max_states ~depths ~snapshot_to ~snapshot_every ~resume_from
        ~deadline_s ~salvage ~disk_visited ~disk_hot_cap
        ~disk_quota ~recover
    | Cmp_mutex ->
      let module X = Xpl (Coord.Cmp_mutex.P) in
      X.explore ~n ~m ~rot ~inputs:(Array.make n ()) ~reduction ~par ~domains
        ~max_states ~depths ~snapshot_to ~snapshot_every ~resume_from
        ~deadline_s ~salvage ~disk_visited ~disk_hot_cap
        ~disk_quota ~recover
    | Consensus ->
      let module X = Xpl (Coord.Consensus.P) in
      (* equal inputs keep the configuration symmetric; `check` still sweeps
         distinct inputs *)
      X.explore ~n ~m ~rot ~inputs:(Array.make n 42) ~reduction ~par ~domains
        ~max_states ~depths ~snapshot_to ~snapshot_every ~resume_from
        ~deadline_s ~salvage ~disk_visited ~disk_hot_cap
        ~disk_quota ~recover
    | Election ->
      let module X = Xpl (Coord.Election.P) in
      X.explore ~n ~m ~rot ~inputs:(Array.make n ()) ~reduction ~par ~domains
        ~max_states ~depths ~snapshot_to ~snapshot_every ~resume_from
        ~deadline_s ~salvage ~disk_visited ~disk_hot_cap
        ~disk_quota ~recover
    | Renaming ->
      let module X = Xpl (Coord.Renaming.P) in
      X.explore ~n ~m ~rot ~inputs:(Array.make n ()) ~reduction ~par ~domains
        ~max_states ~depths ~snapshot_to ~snapshot_every ~resume_from
        ~deadline_s ~salvage ~disk_visited ~disk_hot_cap
        ~disk_quota ~recover
    | Ccp ->
      let module X = Xpl (Coord.Ccp.P) in
      X.explore ~n ~m ~rot ~inputs:(Array.make n ()) ~reduction ~par ~domains
        ~max_states ~depths ~snapshot_to ~snapshot_every ~resume_from
        ~deadline_s ~salvage ~disk_visited ~disk_hot_cap
        ~disk_quota ~recover
  with
  | exception Check.Snapshot.Error e ->
    Format.eprintf "coordctl: snapshot rejected: %s@."
      (Check.Snapshot.error_message e);
    Ok 4
  | st ->
    if st.Check.Checker_stats.stop = Check.Checker_stats.Deadline then Ok 6
    else Ok 0
  in
  if snapshot_to <> None then Check.Snapshot.with_signal_handlers body
  else body ()

let bench n canon no_canon max_states =
  let reduction =
    (* bench defaults to showing the quotient; --no-canon drops it *)
    if no_canon then Check.Explore.Full
    else (ignore canon; Check.Explore.Canon)
  in
  let max_states = Some (Option.value max_states ~default:500_000) in
  (let module X = Xpl (Coord.Amutex.P) in
   X.bench_line ~label:"amutex m=3" ~n ~m:3 ~rot:false
     ~inputs:(Array.make n ()) ~reduction ~max_states;
   X.bench_line ~label:"amutex m=5" ~n ~m:5 ~rot:false
     ~inputs:(Array.make n ()) ~reduction ~max_states);
  (let module X = Xpl (Coord.Consensus.P) in
   X.bench_line ~label:"consensus m=3" ~n ~m:3 ~rot:false
     ~inputs:(Array.make n 42) ~reduction ~max_states);
  (let module X = Xpl (Coord.Renaming.P) in
   X.bench_line ~label:"renaming m=3" ~n ~m:3 ~rot:false
     ~inputs:(Array.make n ()) ~reduction ~max_states);
  (let module X = Xpl (Coord.Ccp.P) in
   X.bench_line ~label:"ccp m=2" ~n ~m:2 ~rot:false ~inputs:(Array.make n ())
     ~reduction ~max_states);
  Format.printf
    "(quick in-process sweep; `make bench-checker` records the full \
     reduced-vs-full and par-vs-seq matrix into BENCH_checker.json)@.";
  Ok 0

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                   *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let proto_arg =
  Arg.(
    required
    & pos 0 (some proto_conv) None
    & info [] ~docv:"PROTOCOL"
        ~doc:"One of mutex, cmp-mutex, consensus, election, renaming, ccp.")

let n_arg =
  Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let m_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "m" ] ~docv:"M" ~doc:"Number of registers (protocol default).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let steps_arg =
  Arg.(
    value & opt int 2000
    & info [ "steps" ] ~docv:"K" ~doc:"Maximum scheduler steps.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the full run trace.")

let simulate_cmd =
  let doc = "run a protocol under a random adversarial schedule" in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      term_result
        (const simulate $ proto_arg $ n_arg $ m_arg $ seed_arg $ steps_arg
       $ trace_arg))

let par_arg =
  Arg.(
    value & flag
    & info [ "par" ]
        ~doc:
          "Use the frontier-parallel explorer: worker domains map chunks \
           of each wide frontier, domain 0 interns them in order, so the \
           graph and verdicts are the sequential explorer's. Dead or \
           stalled workers are absorbed: their chunks are mapped again.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:"Worker domains for --par (default: recommended count).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print checker statistics (throughput, dedup, shard load).")

let canon_arg =
  Arg.(
    value & flag
    & info [ "canon" ]
        ~doc:
          "Explore the symmetry quotient: canonicalize every state under \
           the admissible register/process permutations. Sound — verdicts \
           match the full graph (DESIGN.md §9).")

let no_canon_arg =
  Arg.(
    value & flag
    & info [ "no-canon" ]
        ~doc:"Explicitly explore the full (unreduced) state graph.")

let max_states_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-states" ] ~docv:"B"
        ~doc:
          "Truncate each exploration after $(i,B) states. The verdict then \
           covers only the explored prefix and the exit status is 3 \
           instead of 0.")

let snapshot_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-dir" ] ~docv:"DIR"
        ~doc:
          "Checkpoint each exploration into \
           $(i,DIR)/<proto>-nN-mM-IDX.snap (created if missing). A \
           snapshot is also flushed on SIGINT/SIGTERM and when the state \
           budget truncates the search, so the run can be continued with \
           $(b,--resume).")

let snapshot_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "With $(b,--snapshot-dir), write a checkpoint roughly every \
           $(i,N) newly interned states (default 500000).")

let resume_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume from a snapshot written by an earlier run. The snapshot \
           is matched to the naming assignment it was taken from by config \
           fingerprint; the resumed exploration produces results \
           bit-identical to an uninterrupted run. A corrupt snapshot or \
           one matching none of the checked configurations is rejected \
           with exit status 4.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"S"
        ~doc:
          "Wall-clock budget: after $(i,S) seconds the explorer stops \
           gracefully at the next generation boundary, flushes a snapshot \
           (when snapshotting is on) and the command exits with status 6, \
           so a scheduled run never overruns its slot. Continue with \
           $(b,--resume).")

let salvage_arg =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "When a $(b,--resume) snapshot has a damaged tail (torn append, \
           flipped byte, truncation), roll back to its newest intact \
           checkpoint chunk instead of rejecting the file with exit 4; \
           what was dropped is reported on stderr.")

let inject_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "inject-faults" ] ~docv:"SEED"
        ~doc:
          "Arm the deterministic infrastructure-fault plan derived from \
           $(i,SEED): worker-domain kills and stalls, torn or bit-flipped \
           snapshot writes, an allocation failure (DESIGN.md §12). With \
           $(b,--par), a killed or stalled worker's chunks are mapped \
           again and dead workers respawn. Implies $(b,--salvage) and \
           crash-recovery — explorations retry from the newest \
           salvageable snapshot, and a private snapshot dir is \
           synthesized when $(b,--snapshot-dir) is absent. The plan is printed so the whole campaign replays \
           from the seed.")

let check_exits =
  Cmd.Exit.info 0 ~doc:"all checked properties hold (complete exploration)."
  :: Cmd.Exit.info 1 ~doc:"a property violation was found."
  :: Cmd.Exit.info 3
       ~doc:
         "no violation, but at least one exploration was truncated by \
          $(b,--max-states) or an interrupt: the verdict covers only the \
          explored prefix."
  :: Cmd.Exit.info 4
       ~doc:
         "a $(b,--resume) snapshot was rejected: corrupt, wrong format \
          version, or its fingerprint matches none of the checked \
          configurations (with $(b,--salvage), only snapshots with no \
          intact chunk at all are still rejected)."
  :: Cmd.Exit.info 6
       ~doc:
         "the $(b,--deadline) expired: the exploration stopped gracefully \
          at a generation boundary with no violation found so far, and \
          (when snapshotting is on) flushed a checkpoint to continue \
          from with $(b,--resume)."
  :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults

let check_cmd =
  let doc = "exhaustively model-check a protocol instance" in
  Cmd.v
    (Cmd.info "check" ~doc ~exits:check_exits)
    Term.(
      term_result
        (const check $ proto_arg $ n_arg $ m_arg $ par_arg $ domains_arg
       $ stats_arg $ canon_arg $ no_canon_arg $ max_states_arg
       $ snapshot_dir_arg $ snapshot_every_arg $ resume_arg $ deadline_arg
       $ salvage_arg $ inject_arg))

let explore_cmd =
  let doc = "explore one configuration and print checker statistics" in
  let rot =
    Arg.(
      value & flag
      & info [ "rot" ]
          ~doc:
            "Give process $(i,k) the rotation-by-$(i,k) naming instead of \
             the identity.")
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"B" ~doc:"Truncate after $(i,B) states.")
  in
  let depths =
    Arg.(
      value & flag
      & info [ "depths" ] ~doc:"Also print the per-depth frontier table.")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Checkpoint the exploration into $(i,FILE) (periodically, on \
             truncation, and on SIGINT/SIGTERM) so it can be continued \
             with $(b,--resume).")
  in
  let disk_visited =
    Arg.(
      value
      & opt (some string) None
      & info [ "disk-visited" ] ~docv:"DIR"
          ~doc:
            "External-memory mode: keep only a bounded hot table in RAM \
             and spill the visited set to sorted run files under \
             $(i,DIR) (created if missing; stale runs are cleared), so \
             graphs far beyond RAM explore disk-bounded instead of dying \
             on the state budget. Statistics-only — the graph itself is \
             never materialized — and bit-identical to the in-RAM \
             explorer's accounting. Composes with $(b,--snapshot) / \
             $(b,--resume) / $(b,--salvage); incompatible with \
             $(b,--par).")
  in
  let disk_hot_cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "disk-hot-cap" ] ~docv:"N"
          ~doc:
            "With $(b,--disk-visited), spill the hot table once it holds \
             $(i,N) keys (default ~1M) in addition to the memory \
             watermark — a tuning and testing knob that forces spilling \
             on graphs of any size. Never changes results, only where \
             the visited set lives.")
  in
  let disk_faults =
    Arg.(
      value & flag
      & info [ "disk-faults" ]
          ~doc:
            "With $(b,--inject-faults), widen the fault pool with storage \
             faults: short writes, transient I/O errors, a cumulative \
             disk-full and fsync failures (DESIGN.md §14). Off by \
             default so older seeds replay the exact plans they were \
             recorded with.")
  in
  let disk_quota =
    Arg.(
      value
      & opt (some int) None
      & info [ "disk-quota" ] ~docv:"BYTES"
          ~doc:
            "With $(b,--disk-visited), cap the sorted-run bytes on disk. \
             The exploration stops gracefully $(i,before) the spill that \
             would breach the cap — stop reason $(b,disk_full), \
             checkpoint flushed — and a $(b,--resume) with a larger (or \
             no) quota completes bit-identically.")
  in
  Cmd.v
    (Cmd.info "explore" ~doc)
    Term.(
      term_result
        (const explore $ proto_arg $ n_arg $ m_arg $ rot $ par_arg
       $ domains_arg $ canon_arg $ no_canon_arg $ max_states $ depths
       $ snapshot $ snapshot_every_arg $ resume_arg $ deadline_arg
       $ salvage_arg $ inject_arg $ disk_faults
       $ disk_quota $ disk_visited $ disk_hot_cap))

let bench_cmd =
  let doc = "quick in-process checker benchmark (full vs quotient)" in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"B"
          ~doc:"State budget per exploration (default 500000).")
  in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      term_result (const bench $ n_arg $ canon_arg $ no_canon_arg $ max_states))

let symmetry_cmd =
  let doc = "run the Theorem 3.4 lock-step symmetry adversary on Figure 1" in
  let m_pos =
    Arg.(value & opt int 4 & info [ "m" ] ~docv:"M" ~doc:"Register count.")
  in
  Cmd.v
    (Cmd.info "symmetry" ~doc)
    Term.(term_result (const symmetry $ n_arg $ m_pos $ trace_arg))

let covering_cmd =
  let doc = "run the §6 covering adversary against a protocol" in
  let m_pos =
    Arg.(value & opt int 3 & info [ "m" ] ~docv:"M" ~doc:"Register count.")
  in
  Cmd.v
    (Cmd.info "covering" ~doc)
    Term.(term_result (const covering $ proto_arg $ m_pos $ trace_arg))

let chaos_cmd =
  let doc = "crash-inject a protocol and check the survivors" in
  let attempts =
    Arg.(
      value & opt int 20
      & info [ "attempts" ] ~docv:"A" ~doc:"Seeded attempts to run.")
  in
  let prefix_steps =
    Arg.(
      value & opt int 64
      & info [ "prefix-steps" ] ~docv:"K"
          ~doc:"Adversarial prefix length before the solo periods.")
  in
  let crashes =
    Arg.(
      value
      & opt_all crash_spec_conv []
      & info [ "crash" ] ~docv:"P@K"
          ~doc:"Crash process $(i,P) after $(i,K) of its steps (repeatable).")
  in
  let crash_cs =
    Arg.(
      value & opt_all int []
      & info [ "crash-cs" ] ~docv:"P"
          ~doc:
            "Crash process $(i,P) on entry to its critical section \
             (repeatable).")
  in
  let rejoins =
    Arg.(
      value
      & opt_all rejoin_spec_conv []
      & info [ "rejoin" ] ~docv:"P@K+D"
          ~doc:
            "Crash process $(i,P) after $(i,K) steps and rejoin it with \
             fresh state $(i,D) ticks later (repeatable).")
  in
  Cmd.v
    (Cmd.info "chaos" ~doc)
    Term.(
      term_result
        (const chaos $ proto_arg $ n_arg $ m_arg $ seed_arg $ attempts
       $ prefix_steps $ crashes $ crash_cs $ rejoins))

let fuzz_exits =
  Cmd.Exit.info 0 ~doc:"no violation in the generated instances."
  :: Cmd.Exit.info 1
       ~doc:
         "a property violation was found (the first witness is shrunk with \
          $(b,--shrink) and written with $(b,--corpus))."
  :: Cmd.Exit.info 5
       ~doc:
         "engine disagreement: the sequential and parallel explorers, the \
          graph-level property checkers, the runtime replay/probes or the \
          baseline twin contradicted each other — a checker bug."
  :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults

let fuzz_cmd =
  let doc =
    "property-based differential fuzzing over generated instances"
  in
  let n =
    Arg.(
      value
      & opt (some int) None
      & info [ "n" ] ~docv:"N"
          ~doc:"Pin the process count (default: drawn from 2..3).")
  in
  let attempts =
    Arg.(
      value & opt int 200
      & info [ "attempts" ] ~docv:"A" ~doc:"Generated instances to run.")
  in
  let seconds =
    Arg.(
      value
      & opt (some float) None
      & info [ "seconds" ] ~docv:"S"
          ~doc:"Stop after roughly $(i,S) seconds even if attempts remain.")
  in
  let max_states =
    Arg.(
      value & opt int 20_000
      & info [ "max-states" ] ~docv:"B"
          ~doc:
            "State budget per exploration; truncated instances count as \
             undecided unless a probe finds a violation.")
  in
  let probes =
    Arg.(
      value & opt int 4
      & info [ "probes" ] ~docv:"K"
          ~doc:"Randomized runtime schedules per instance.")
  in
  let do_shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Minimize the first witness before reporting/writing it.")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Write the first witness bundle into $(i,DIR) (created if \
             missing) for `coordctl shrink` and the regression corpus.")
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~exits:fuzz_exits)
    Term.(
      term_result
        (const fuzz $ proto_arg $ n $ m_arg $ attempts $ seconds $ seed_arg
       $ max_states $ probes $ do_shrink $ corpus $ deadline_arg))

let shrink_cmd =
  let doc = "replay or minimize a fuzz witness bundle" in
  let bundle =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE" ~doc:"Witness bundle file (COORDFUZZ format).")
  in
  let replay_only =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Only replay: exit 0 if the violation reproduces, 1 if not. \
             This is what `make fuzz-smoke` runs over test/corpus/.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the shrunk bundle (default BUNDLE.min).")
  in
  let show_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the replayed trace.")
  in
  let max_rounds =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-rounds" ] ~docv:"R"
          ~doc:"Cap the shrinker's fixpoint rounds (default 8).")
  in
  let shrink_exits =
    Cmd.Exit.info 0 ~doc:"replay reproduced the violation / shrink succeeded."
    :: Cmd.Exit.info 1 ~doc:"the bundle does not reproduce its violation."
    :: Cmd.Exit.info 2 ~doc:"the bundle file is malformed."
    :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "shrink" ~doc ~exits:shrink_exits)
    Term.(
      term_result
        (const shrink $ bundle $ replay_only $ out $ show_trace $ max_rounds))

let graph_cmd =
  let doc = "export the reachable state graph as Graphviz DOT" in
  let output =
    Cmdliner.Arg.(
      value & opt string "states.dot"
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "graph" ~doc)
    Term.(term_result (const graph $ proto_arg $ n_arg $ m_arg $ output))

let tables_cmd =
  let doc = "regenerate the experiment tables (EXPERIMENTS.md)" in
  let ids =
    Arg.(
      value & opt_all string []
      & info [ "e" ] ~docv:"ID" ~doc:"Experiment id (repeatable), e.g. E4.")
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Wider sweeps (slower).")
  in
  Cmd.v (Cmd.info "tables" ~doc) Term.(term_result (const tables $ ids $ full))

(* ------------------------------------------------------------------ *)
(* serve / sweep: the job-queue verification service                   *)
(* ------------------------------------------------------------------ *)

let serve spool workers quantum poll once =
  Ok
    (Serve.Daemon.run
       { Serve.Daemon.spool; workers; quantum; poll_s = poll; once })

let serve_cmd =
  let doc = "run the verification job-queue daemon over a spool directory" in
  let spool =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SPOOL"
          ~doc:
            "Spool directory (created if missing). Drop job specs as \
             $(i,SPOOL)/NAME.job (key=value lines: kind, proto, n, m, \
             reduction, engine, max_states, deadline, priority, attempts, \
             seed, steps, strategy); results appear atomically as \
             $(i,SPOOL)/done/NAME.result. Create $(i,SPOOL)/shutdown for a \
             clean stop.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"K"
          ~doc:"Concurrent job slices per scheduling round.")
  in
  let quantum =
    Arg.(
      value & opt int 50_000
      & info [ "quantum" ] ~docv:"Q"
          ~doc:
            "Fresh states a check job may explore per slice before it is \
             preempted at a snapshot boundary and re-queued.")
  in
  let poll =
    Arg.(
      value & opt float 0.05
      & info [ "poll" ] ~docv:"S" ~doc:"Idle sleep between spool scans.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Exit as soon as the spool is drained and every accepted job \
             has a result (batch mode).")
  in
  let serve_exits =
    Cmd.Exit.info 0
      ~doc:
        "clean shutdown (shutdown file, SIGTERM/SIGINT, or $(b,--once) \
         drain). Per-job verdicts live in the result files, not the exit \
         code."
    :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~exits:serve_exits)
    Term.(
      term_result (const serve $ spool $ workers $ quantum $ poll $ once))

let utc_timestamp () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  str "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let sweep_run file quantum record =
  match Serve.Sweep.load ~path:file with
  | Error msg ->
    Format.eprintf "coordctl: %s: %s@." file msg;
    Ok 2
  | Ok s ->
    let report =
      Serve.Sweep.run ~quantum
        ~progress:(fun line -> Format.printf "%s@." line)
        s
    in
    let table =
      Report.Table.make ~id:"SWEEP"
        ~title:(str "sweep %s" s.Serve.Sweep.name)
        ~header:Serve.Sweep.kpi_header
        ~notes:(Serve.Sweep.aggregate_lines report)
        (Serve.Sweep.kpi_rows report)
    in
    Report.Table.render Format.std_formatter table;
    Option.iter
      (fun f ->
        Serve.Sweep.append_bench ~file:f ~ts:(utc_timestamp ()) report;
        Format.printf "KPI table recorded to %s@." f)
      record;
    Ok (Serve.Sweep.exit_code report)

let sweep_cmd =
  let doc = "expand a declarative matrix spec into jobs and gate the KPIs" in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Sweep spec: key = value lines (protocols, n, m, reductions, \
             engines, faults, seeds, max_states, expect, \
             expect.$(i,PREFIX), ...), list values comma-separated. See \
             examples/tiny.sweep.")
  in
  let quantum =
    Arg.(
      value & opt int 50_000
      & info [ "quantum" ] ~docv:"Q"
          ~doc:"Preemption quantum for the underlying worker pool.")
  in
  let record =
    Arg.(
      value
      & opt (some string) None ~vopt:(Some "BENCH_checker.json")
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Append the KPI table to the JSON bench log (default \
             BENCH_checker.json when given without a value).")
  in
  let sweep_exits =
    Cmd.Exit.info 0
      ~doc:
        "every regression gate held (or, with no gates configured, no cell \
         found a violation)."
    :: Cmd.Exit.info 1
         ~doc:
           "a regression gate failed — or, with no gates configured, some \
            cell found a violation/disagreement or crashed."
    :: Cmd.Exit.info 2 ~doc:"the sweep spec is malformed."
    :: List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "sweep" ~doc ~exits:sweep_exits)
    Term.(term_result (const sweep_run $ file $ quantum $ record))

let () =
  let doc = "memory-anonymous coordination (Taubenfeld, PODC'17) reproduction" in
  let info = Cmd.info "coordctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            simulate_cmd;
            check_cmd;
            explore_cmd;
            bench_cmd;
            chaos_cmd;
            fuzz_cmd;
            shrink_cmd;
            symmetry_cmd;
            covering_cmd;
            graph_cmd;
            tables_cmd;
            serve_cmd;
            sweep_cmd;
          ]))
