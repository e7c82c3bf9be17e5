(* coordctl: command-line driver for the reproduction.

     coordctl tables [-e E4] [--full]       regenerate experiment tables
     coordctl simulate PROTO [-n N] ...     run a protocol under a schedule
     coordctl check PROTO [-n N] [-m M]     exhaustively model-check
     coordctl chaos PROTO [--crash P@K] ... crash-inject and check survivors
     coordctl symmetry [-n N] [-m M]        run the Thm 3.4 lock-step attack
     coordctl covering PROTO [-m M] ...     run the §6 covering adversary
     coordctl fuzz PROTO [--shrink] ...     differential fuzzing sweep
     coordctl shrink BUNDLE [--replay]      minimize / re-run a witness

   Every protocol is wired once, in Serve.Protocols: its inputs, judged
   properties, fuzz suite and baseline twin. The commands below look
   protocols up there; `check` runs the daemon's own job loop. *)

open Anonmem

let str = Printf.sprintf

(* Protocols, their names and default register counts come from the
   job-spec table the serving layer uses. *)
module Spec = Serve.Spec
module Protocols = Serve.Protocols

let proto_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Spec.proto_of_string s) in
  let print ppf p = Format.pp_print_string ppf (Spec.proto_to_string p) in
  Cmdliner.Arg.conv (parse, print)

let default_m proto ~n m =
  match m with Some m -> m | None -> Spec.default_m proto ~n

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let reduction_of_flags ~canon ~no_canon =
  if canon && no_canon then
    failwith "--canon and --no-canon are mutually exclusive"
  else if canon then Check.Explore.Canon
  else Check.Explore.Full

let canon_note (module X : Protocols.ENTRY) ~n reduction =
  let module E = Check.Explore.Make (X.P) in
  if reduction = Check.Explore.Canon && E.canon_degraded ~n then
    Format.printf
      "note: --canon degraded to the identity group (%s): exploring the \
       full graph, reduction factor 1.0.@."
      (if not X.P.symmetric then X.P.name ^ " is not a symmetric protocol"
       else str "n = %d exceeds the group-enumeration bound 7" n)

(* --inject-faults SEED arms a deterministic infrastructure-fault plan,
   prints it so the whole campaign replays from the seed, and hands the
   command a private temp directory to checkpoint into (recovery needs
   somewhere to resume from). The plan is disarmed and the directory
   removed when the command ends, also when it raises. *)
let with_faults ?domains ?disk inject f =
  match inject with
  | None -> f None
  | Some seed ->
    let plan = Resilience.plan_of_seed ?domains ?disk seed in
    Resilience.arm plan;
    Format.printf "fault plan: %a@." Resilience.pp_plan plan;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (str "coordctl-inject-%d" (Unix.getpid ()))
    in
    ensure_dir dir;
    let cleanup () =
      Resilience.disarm ();
      try
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      with Sys_error _ -> ()
    in
    Fun.protect ~finally:cleanup (fun () -> f (Some dir))

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

module Sim (P : Protocol.PROTOCOL) = struct
  module R = Runtime.Make (P)

  let run ~n ~m ~seed ~steps ~show_trace ~inputs =
    let rng = Rng.create seed in
    let cfg : R.config =
      {
        ids = Protocols.ids ~n;
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

let simulate proto n m seed steps show_trace =
  let module X = (val Protocols.find proto) in
  let module S = Sim (X.P) in
  S.run ~n ~m:(default_m proto ~n m) ~seed ~steps ~show_trace
    ~inputs:(X.inputs ~n);
  Ok 0

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

(* `check` is a client of the job runner: it builds a check spec from
   its flags and runs the runner's naming sweep to completion in one
   unsliced, uncached slice, so it prints the per-configuration lines a
   served job stores (DESIGN.md §15). [--par] selects the
   frontier-parallel explorer; [--canon] the symmetry quotient (sound
   for every protocol, DESIGN.md §9); [--snapshot-dir] checkpoints the
   configuration in progress so an interrupted sweep continues with
   [--resume] (§10); [--deadline] bounds the whole command;
   [--salvage]/[--inject-faults] are the self-healing surface (§12).

   Exit codes (also rendered in `coordctl check --help`): 0 all
   properties hold on complete explorations; 1 a violation was found; 3
   no violation but some exploration was truncated (the verdict covers
   only the explored prefix); 4 a --resume snapshot was rejected
   (corrupt, wrong version, or fingerprint mismatch with every swept
   configuration); 6 the --deadline expired (graceful stop at a
   generation boundary, snapshot flushed). *)
let check proto n m par domains stats canon no_canon max_states snapshot_dir
    snapshot_every resume deadline salvage inject =
  let reduction = reduction_of_flags ~canon ~no_canon in
  let m = default_m proto ~n m in
  let spec =
    Spec.make ~n ~m ~reduction
      ~engine:(if par then Spec.Par else Spec.Seq)
      ?max_states ?deadline_s:deadline Spec.Check proto
  in
  let entry = Protocols.find proto in
  let module X = (val entry) in
  (* --inject-faults implies salvage, crash recovery and a tight
     checkpoint cadence, so recovery has boundaries to resume from *)
  let faults = inject <> None in
  let snapshot_every =
    if faults && snapshot_every = None then Some 1 else snapshot_every
  in
  with_faults ?domains inject @@ fun private_dir ->
  canon_note entry ~n reduction;
  let snapshot =
    Option.map
      (fun dir ->
        ensure_dir dir;
        Filename.concat dir (str "%s-n%d-m%d.snap" X.P.name n m))
      (if snapshot_dir = None then private_dir else snapshot_dir)
  in
  (* each configuration's line is printed as soon as it is judged *)
  let checked = ref 0 in
  let on_config line st =
    if stats then Option.iter (Format.printf "%a@." Check.Checker_stats.pp) st;
    Format.printf "%s@." line;
    incr checked
  in
  let run () =
    Serve.Runner.run_slice ?deadline_left_s:deadline
      ~salvage:(salvage || faults) ?domains ?snapshot_every ?resume
      ~recover:faults ?snapshot ~on_config spec Serve.Runner.start
  in
  (* scoped, not leaked: previous SIGINT/SIGTERM dispositions are
     restored when the check returns (or raises) *)
  match if snapshot <> None then Check.Snapshot.with_signal_handlers run
    else run ()
  with
  | exception Check.Snapshot.Error e ->
    Format.eprintf "coordctl: snapshot rejected: %s@."
      (Check.Snapshot.error_message e);
    Ok 4
  | Serve.Runner.Yield _ -> assert false (* no quantum: one slice *)
  | Serve.Runner.Done o ->
    Format.printf "%d naming assignment(s) checked.@." !checked;
    if
      List.exists
        (fun st -> not st.Check.Checker_stats.complete)
        o.Serve.Runner.stats
    then
      Format.eprintf
        "WARNING: exploration truncated (state budget, interrupt or \
         deadline); verdicts cover only the explored prefix.@.";
    Format.printf "RESULT: %s@."
      (match o.Serve.Runner.verdict with
      | Serve.Runner.Violation -> "violations found."
      | Serve.Runner.Deadline ->
        "no violation before the deadline (incomplete; snapshot flushed \
         for --resume)."
      | Serve.Runner.Truncated ->
        "no violation in the explored prefix (incomplete)."
      | _ -> "all properties hold.");
    Ok (Serve.Runner.verdict_exit o.Serve.Runner.verdict)

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

let chaos_ids n = Array.to_list (Protocols.ids ~n)

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
  let m = default_m proto ~n m in
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
   bug. The campaign is built from the protocol's table entry, as a
   served fuzz job's is. *)
module Fz (X : Protocols.ENTRY) = struct
  module F = Check.Fuzz.Make (X.P)

  (* The shrinker's property for a named fuzz property: safety predicates
     are replayed directly; liveness witnesses are lassos. *)
  let sprop ~inputs name =
    match
      List.find_opt (fun (p : F.property) -> p.F.name = name) X.fuzz_properties
    with
    | Some { F.rt_check = Some pred; _ } -> Some (F.S.Safety (pred inputs))
    | Some { F.rt_check = None; _ } -> Some F.S.Lasso
    | None -> None

  let write_bundle ~proto_name ~pname ~path b =
    Check.Shrink.write_raw path
      (F.S.to_raw ~protocol:proto_name ~property_name:pname
         ~input_to_string:X.input_to_string b);
    Format.printf "wrote %s@." path

  let fuzz ~proto_name ~n ~m ~attempts ~seconds ~seed ~max_states ~probes
      ~do_shrink ~corpus =
    let report =
      F.run ~seed ~attempts ?time_budget:seconds ~max_states ~probes
        ~fixed:(n, m) ~deterministic:X.deterministic ?twin:X.twin
        ~properties:X.fuzz_properties ~gen_inputs:X.gen_inputs ()
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
              match sprop ~inputs:b0.F.S.inputs pname with
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
            write_bundle ~proto_name ~pname ~path b);
        Format.printf "RESULT: violations found.@.";
        Ok 1
      end

  let shrink_file ~(raw : Check.Shrink.raw) ~replay_only ~out ~show_trace
      ~max_rounds path =
    let b = F.S.of_raw ~input_of_string:X.input_of_string raw in
    match sprop ~inputs:b.F.S.inputs raw.Check.Shrink.property with
    | None ->
      Format.eprintf "coordctl: unknown property %S for protocol %s@."
        raw.Check.Shrink.property raw.Check.Shrink.protocol;
      Ok 2
    | Some sp ->
      let hit, trace = F.S.replay sp b in
      if show_trace then
        Format.printf "%a@."
          (Trace.pp ~pp_value:X.P.Value.pp ~pp_output:X.P.pp_output)
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
        write_bundle ~proto_name:raw.Check.Shrink.protocol
          ~pname:raw.Check.Shrink.property ~path:out b';
        Ok 0
      end
end

let fuzz proto n m attempts seconds seed max_states probes do_shrink corpus
    deadline =
  (* --deadline is the cross-command wall-clock bound; for fuzz it maps
     onto the existing per-campaign seconds budget (tighter of the two) *)
  let seconds =
    match (seconds, deadline) with
    | Some s, Some d -> Some (Float.min s d)
    | None, d -> d
    | s, None -> s
  in
  let module X = (val Protocols.find proto) in
  let module Z = Fz (X) in
  Z.fuzz ~proto_name:(Spec.proto_to_string proto) ~n ~m ~attempts ~seconds
    ~seed ~max_states ~probes ~do_shrink ~corpus

let shrink path replay_only out show_trace max_rounds =
  match Check.Shrink.read_raw path with
  | Error msg ->
    Format.eprintf "coordctl: %s@." msg;
    Ok 2
  | Ok raw -> (
    match Spec.proto_of_string raw.Check.Shrink.protocol with
    | Error _ ->
      Format.eprintf "coordctl: unknown protocol %S in %s@."
        raw.Check.Shrink.protocol path;
      Ok 2
    | Ok proto ->
      let module X = (val Protocols.find proto) in
      let module Z = Fz (X) in
      Z.shrink_file ~raw ~replay_only ~out ~show_trace ~max_rounds path)

(* ------------------------------------------------------------------ *)
(* graph export                                                        *)
(* ------------------------------------------------------------------ *)

let graph proto n m output =
  let m = default_m proto ~n m in
  let module X = (val Protocols.find proto) in
  let module E = Check.Explore.Make (X.P) in
  let g =
    E.explore
      {
        ids = Protocols.ids ~n;
        inputs = X.inputs ~n;
        namings = Array.init n (fun k -> Naming.rotation m k);
      }
  in
  let oc = open_out output in
  let ppf = Format.formatter_of_out_channel oc in
  Check.Dot.of_flat (E.to_flat g) ppf ();
  Format.pp_print_flush ppf ();
  close_out oc;
  Format.printf "wrote %s@." output;
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
      ids = Protocols.ids ~n;
      inputs;
      namings =
        Array.init n (fun k ->
            if rot then Naming.rotation m k else Naming.identity m);
    }

  let explore ~n ~m ~rot ~inputs ~reduction ~par ~domains ~max_states ~depths
      ~snapshot_to ~snapshot_every ~resume_from ~deadline_s ~salvage
      ~disk_visited ~disk_hot_cap ~disk_quota ~recover =
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
      | None ->
        let domains =
          if not par then 1
          else
            Option.value domains ~default:(Domain.recommended_domain_count ())
        in
        snd
          (E.explore_with_stats ?max_states ~domains ?snapshot_every
             ?snapshot_to ?resume_from ?deadline_s ~salvage ~reduction cfg)
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

let explore proto n m rot par domains canon no_canon max_states depths
    snapshot_to snapshot_every resume_from deadline_s salvage inject
    disk_faults disk_quota disk_visited disk_hot_cap =
  let reduction = reduction_of_flags ~canon ~no_canon in
  let m = default_m proto ~n m in
  let entry = Protocols.find proto in
  let module X = (val entry) in
  let module Y = Xpl (X.P) in
  (* --inject-faults on explore mirrors `check`: --disk-faults widens the
     plan pool with storage faults (DESIGN.md §14) *)
  with_faults ?domains ~disk:disk_faults inject @@ fun private_dir ->
  canon_note entry ~n reduction;
  let faults = inject <> None in
  let snapshot_to =
    match (snapshot_to, private_dir) with
    | None, Some dir -> Some (Filename.concat dir (str "%s.snap" X.P.name))
    | _ -> snapshot_to
  in
  let body () =
    match
      Y.explore ~n ~m ~rot ~inputs:(X.explore_inputs ~n) ~reduction ~par
        ~domains ~max_states ~depths ~snapshot_to
        ~snapshot_every:
          (if faults && snapshot_every = None then Some 1 else snapshot_every)
        ~resume_from ~deadline_s ~salvage:(salvage || faults) ~disk_visited
        ~disk_hot_cap ~disk_quota ~recover:faults
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
  List.iter
    (fun (label, proto, m) ->
      let module X = (val Protocols.find proto) in
      let module Y = Xpl (X.P) in
      Y.bench_line ~label ~n ~m ~rot:false ~inputs:(X.explore_inputs ~n)
        ~reduction ~max_states)
    Spec.
      [
        ("amutex m=3", Mutex, 3);
        ("amutex m=5", Mutex, 5);
        ("consensus m=3", Consensus, 3);
        ("renaming m=3", Renaming, 3);
        ("ccp m=2", Ccp, 2);
      ];
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
          "Checkpoint the configuration in progress into \
           $(i,DIR)/<protocol>-nN-mM.snap (created if missing): one file \
           per command, replaced when the sweep moves to the next \
           configuration. A snapshot is also flushed on SIGINT/SIGTERM, \
           on an expired $(b,--deadline) and when the state budget \
           truncates the search; the file of the configuration the \
           command stopped on is kept, so the run can be continued with \
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
          "Wall-clock budget of the whole command: after $(i,S) seconds \
           the exploration in progress stops gracefully at the next \
           generation boundary, flushes a snapshot (when snapshotting is \
           on), the configurations not yet reached are skipped, and the \
           command exits with status 6, so a scheduled run never overruns \
           its slot. Continue with $(b,--resume).")

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
           salvageable snapshot, and a private snapshot dir in the temp \
           dir, removed when the command ends, is used when \
           $(b,--snapshot-dir) is absent. The plan is printed so the whole \
           campaign replays from the seed.")

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
  let man =
    [
      `S Manpage.s_description;
      `P
        "Explores every naming assignment of the instance (all m! relative \
         namings for n = 2 and m <= 5, else the rotation tuple) with the \
         job loop $(b,coordctl serve) runs, and prints one line per \
         assignment: its namings, its state count, $(i,truncated) if the \
         exploration was cut, and the verdicts of the protocol's judged \
         properties — the line a served check job stores in its \
         $(i,detail). Mutex protocols are judged on mutual exclusion and \
         deadlock freedom; $(b,coordctl tables -e E12) has the exact \
         starvation-freedom verdicts.";
    ]
  in
  Cmd.v
    (Cmd.info "check" ~doc ~man ~exits:check_exits)
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
