open Anonmem

type speed = Quick | Full

(* Explorer / runtime / adversary instances for every protocol under test. *)
module EMutex = Check.Explore.Make (Coord.Amutex.P)
module ECons = Check.Explore.Make (Coord.Consensus.P)
module EElec = Check.Explore.Make (Coord.Election.P)
module ERen = Check.Explore.Make (Coord.Renaming.P)
module EPet = Check.Explore.Make (Baseline.Peterson.P)
module EBurns = Check.Explore.Make (Baseline.Burns.P)
module ETour = Check.Explore.Make (Baseline.Tournament.P)
module EFast = Check.Explore.Make (Baseline.Fast_mutex.P)
module ECa = Check.Explore.Make (Baseline.Ca_consensus.P)
module EChain = Check.Explore.Make (Baseline.Chain_renaming.P)
module RCons = Runtime.Make (Coord.Consensus.P)
module RElec = Runtime.Make (Coord.Election.P)
module RRen = Runtime.Make (Coord.Renaming.P)
module SymMutex = Lowerbound.Symmetry.Make (Coord.Amutex.P)
module SymCcpDet = Lowerbound.Symmetry.Make (Coord.Ccp.Det)
module CovMutex = Lowerbound.Covering.Make (Coord.Amutex.P)

let ok_or tag = function None -> "ok" | Some _ -> tag

let str = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 is a correct two-process mutex for odd m               *)
(* ------------------------------------------------------------------ *)

let mutex_naming_sweep ~m namings =
  let states = ref 0 in
  let me_bad = ref 0 in
  let df_bad = ref 0 in
  List.iter
    (fun nam ->
      let cfg : EMutex.config =
        {
          ids = [| 7; 13 |];
          inputs = [| (); () |];
          namings = [| Naming.identity m; nam |];
        }
      in
      let g = EMutex.explore cfg in
      assert g.complete;
      states := max !states (Array.length g.states);
      let f = EMutex.to_flat g in
      if Check.Mutex_props.mutual_exclusion f <> None then incr me_bad;
      if Check.Mutex_props.deadlock_freedom f <> None then incr df_bad)
    namings;
  (!states, !me_bad, !df_bad)

let e1_mutex_model_check speed =
  let cases =
    match speed with
    | Quick ->
      [
        (3, Naming.all 3);
        ( 5,
          Naming.identity 5
          :: List.init 4 (fun d -> Naming.rotation 5 (d + 1))
          @ [ Naming.random (Rng.create 1) 5; Naming.random (Rng.create 2) 5 ] );
      ]
    | Full -> [ (3, Naming.all 3); (5, Naming.all 5) ]
  in
  let rows =
    List.map
      (fun (m, namings) ->
        let states, me_bad, df_bad = mutex_naming_sweep ~m namings in
        [
          string_of_int m;
          string_of_int (List.length namings);
          string_of_int states;
          (if me_bad = 0 then "ok" else str "VIOLATED(%d)" me_bad);
          (if df_bad = 0 then "ok" else str "VIOLATED(%d)" df_bad);
          "safe + deadlock-free";
        ])
      cases
  in
  [
    Table.make ~id:"E1"
      ~title:
        "Fig 1 mutex, n=2, odd m: exhaustive model check over relative \
         namings (Thm 3.1-3.3)"
      ~header:
        [ "m"; "namings"; "max states"; "mutual excl"; "deadlock-free";
          "paper" ]
      ~notes:
        [
          "Process 0's naming is fixed to the identity WLOG (physical \
           registers can be relabeled).";
        ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E2: even m fails                                                    *)
(* ------------------------------------------------------------------ *)

let e2_even_m speed =
  let exhaustive_upto = match speed with Quick -> 4 | Full -> 6 in
  let rows =
    List.map
      (fun m ->
        let attack =
          match
            SymMutex.attack ~ids:[ 7; 13 ] ~inputs:[ (); () ] ~m ()
          with
          | Some (d, v, _) ->
            str "d=%d: %s" d
              (Format.asprintf "%a" Lowerbound.Symmetry.pp_verdict v)
          | None -> "no witness"
        in
        let exhaustive =
          if m <= exhaustive_upto then begin
            let _, me_bad, df_bad =
              mutex_naming_sweep ~m [ Naming.rotation m (m / 2) ]
            in
            str "ME %s, DF %s"
              (if me_bad = 0 then "ok" else "VIOLATED")
              (if df_bad = 0 then "ok (BAD)" else "violated as predicted")
          end
          else "(skipped)"
        in
        [ string_of_int m; attack; exhaustive ])
      [ 2; 4; 6; 8 ]
  in
  [
    Table.make ~id:"E2"
      ~title:"Fig 1 mutex, n=2, even m: the symmetry adversary wins (Thm 3.1)"
      ~header:[ "m"; "lock-step attack (antipodal naming)"; "exhaustive check" ]
      ~notes:
        [
          "The attack gives both processes the same ring order with initial \
           registers m/2 apart and runs them in lock step.";
        ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E3: the gcd grid of Theorem 3.4                                     *)
(* ------------------------------------------------------------------ *)

let e3_gcd_grid _speed =
  let ms = [ 2; 3; 4; 5; 6; 7; 8; 9 ] in
  let rows =
    List.map
      (fun n ->
        let ids = List.init n (fun i -> (i + 1) * 7) in
        let inputs = List.map (fun _ -> ()) ids in
        string_of_int n
        :: List.map
             (fun m ->
               match SymMutex.attack ~ids ~inputs ~m () with
               | None -> "coprime"
               | Some (d, Lowerbound.Symmetry.Livelock _, _) ->
                 str "d=%d livelock" d
               | Some (d, Lowerbound.Symmetry.Mutex_violation _, _) ->
                 str "d=%d ME-viol" d
               | Some (d, Lowerbound.Symmetry.Symmetry_broken _, _)
               | Some (d, Lowerbound.Symmetry.No_violation _, _) ->
                 str "d=%d ???" d)
             ms)
      [ 2; 3; 4; 5 ]
  in
  [
    Table.make ~id:"E3"
      ~title:
        "Symmetry attack on Fig 1's n-process generalization: verdict per \
         (n, m) (Thm 3.4)"
      ~header:("n \\ m" :: List.map string_of_int ms)
      ~notes:
        [
          "'coprime' = m relatively prime to every l <= n: Thm 3.4 permits \
           an algorithm, and indeed no symmetric lock-step attack exists.";
          "Everywhere else the paper predicts failure, and the attack run \
           exhibits it (livelock = deadlock-freedom violated).";
        ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E4/E5: consensus and election                                       *)
(* ------------------------------------------------------------------ *)

let decision_task_model_check (type graph) ~name
    ~(explore : Naming.t -> graph)
    ~(states : graph -> int) ~(agreement : graph -> bool)
    ~(validity : graph -> bool) ~(obstruction_free : graph -> bool) () =
  ignore name;
  let namings = Naming.all 3 in
  let total = ref 0 in
  let agree_bad = ref 0 in
  let valid_bad = ref 0 in
  let of_bad = ref 0 in
  List.iter
    (fun nam ->
      let g = explore nam in
      total := max !total (states g);
      if not (agreement g) then incr agree_bad;
      if not (validity g) then incr valid_bad;
      if not (obstruction_free g) then incr of_bad)
    namings;
  ( List.length namings,
    !total,
    ok_or "VIOLATED" (if !agree_bad = 0 then None else Some ()),
    ok_or "VIOLATED" (if !valid_bad = 0 then None else Some ()),
    ok_or "STUCK" (if !of_bad = 0 then None else Some ()) )

let consensus_campaign ~runs ~n =
  let m = (2 * n) - 1 in
  let steps = ref [] in
  let bad = ref 0 in
  for seed = 1 to runs do
    let rng = Rng.create ((seed * 7919) + n) in
    let ids = List.init n (fun i -> (i + 1) * 7) in
    let inputs = List.init n (fun i -> (i + 1) * 100) in
    let cfg : RCons.config =
      {
        ids = Array.of_list ids;
        inputs = Array.of_list inputs;
        namings = Array.init n (fun _ -> Naming.random rng m);
        rng = None;
        record_trace = false;
      }
    in
    let rt = RCons.create cfg in
    let _ = RCons.run rt (Schedule.random rng) ~max_steps:(200 * n * n) in
    for i = 0 to n - 1 do
      ignore (RCons.run rt (Schedule.solo i) ~max_steps:(20 * m * m))
    done;
    steps := float_of_int (RCons.clock rt) :: !steps;
    let ds = Array.to_list (RCons.decisions rt) |> List.filter_map Fun.id in
    let distinct = List.sort_uniq compare ds in
    if
      List.length ds <> n
      || List.length distinct <> 1
      || not (List.mem (List.hd distinct) inputs)
    then incr bad
  done;
  (!bad, Stats.summarize !steps)

let e4_consensus speed =
  let explore nam =
    ECons.explore
      {
        ids = [| 7; 13 |];
        inputs = [| 100; 200 |];
        namings = [| Naming.identity 3; nam |];
      }
  in
  let namings, states, agree, valid, ofree =
    decision_task_model_check ~name:"consensus" ~explore
      ~states:(fun (g : ECons.graph) -> Array.length g.states)
      ~agreement:(fun g ->
        Check.Props.agreement ~equal:Int.equal ~statuses:ECons.statuses
          g.states
        = None)
      ~validity:(fun g ->
        Check.Props.validity
          ~allowed:(fun v -> v = 100 || v = 200)
          ~statuses:ECons.statuses g.states
        = None)
      ~obstruction_free:(fun g -> ECons.check_obstruction_freedom g = None)
      ()
  in
  let mc =
    Table.make ~id:"E4a"
      ~title:"Fig 2 consensus, n=2 (m=3): exhaustive model check (Thm 4.1/4.2)"
      ~header:
        [ "namings"; "max states"; "agreement"; "validity"; "OF-termination" ]
      [
        [ string_of_int namings; string_of_int states; agree; valid; ofree ];
      ]
  in
  let runs = match speed with Quick -> 100 | Full -> 500 in
  let rows =
    List.map
      (fun n ->
        let bad, steps = consensus_campaign ~runs ~n in
        [
          string_of_int n;
          string_of_int ((2 * n) - 1);
          string_of_int runs;
          string_of_int bad;
          str "%.0f" steps.Stats.mean;
          str "%.0f" steps.Stats.max;
        ])
      [ 2; 3; 4; 5; 6 ]
  in
  let campaign =
    Table.make ~id:"E4b"
      ~title:
        "Fig 2 consensus: random adversarial schedules + solo finish \
         (safety violations must be 0)"
      ~header:
        [ "n"; "m=2n-1"; "runs"; "violations"; "mean steps"; "max steps" ]
      rows
  in
  [ mc; campaign ]

let e5_election speed =
  let explore nam =
    EElec.explore
      {
        ids = [| 7; 13 |];
        inputs = [| (); () |];
        namings = [| Naming.identity 3; nam |];
      }
  in
  let namings, states, agree, valid, ofree =
    decision_task_model_check ~name:"election" ~explore
      ~states:(fun (g : EElec.graph) -> Array.length g.states)
      ~agreement:(fun g ->
        Check.Props.agreement ~equal:Int.equal ~statuses:EElec.statuses
          g.states
        = None)
      ~validity:(fun g ->
        Check.Props.validity
          ~allowed:(fun v -> v = 7 || v = 13)
          ~statuses:EElec.statuses g.states
        = None)
      ~obstruction_free:(fun g -> EElec.check_obstruction_freedom g = None)
      ()
  in
  let mc =
    Table.make ~id:"E5a"
      ~title:
        "Election via consensus-on-ids, n=2: exhaustive model check (§4 note)"
      ~header:
        [
          "namings"; "max states"; "one leader"; "leader participates";
          "OF-termination";
        ]
      [
        [ string_of_int namings; string_of_int states; agree; valid; ofree ];
      ]
  in
  let runs = match speed with Quick -> 100 | Full -> 400 in
  let rows =
    List.map
      (fun n ->
        let bad = ref 0 in
        let self_elected = ref 0 in
        for seed = 1 to runs do
          let m = (2 * n) - 1 in
          let rng = Rng.create ((seed * 104729) + n) in
          let ids = List.init n (fun i -> ((i + 1) * 31) + 1) in
          let cfg : RElec.config =
            {
              ids = Array.of_list ids;
              inputs = Array.make n ();
              namings = Array.init n (fun _ -> Naming.random rng m);
              rng = None;
              record_trace = false;
            }
          in
          let rt = RElec.create cfg in
          let _ = RElec.run rt (Schedule.random rng) ~max_steps:(200 * n * n) in
          for i = 0 to n - 1 do
            ignore (RElec.run rt (Schedule.solo i) ~max_steps:(20 * m * m))
          done;
          let ds =
            Array.to_list (RElec.decisions rt) |> List.filter_map Fun.id
          in
          (match List.sort_uniq compare ds with
          | [ leader ] when List.length ds = n && List.mem leader ids ->
            if List.exists (fun id -> id = leader) ids then
              incr self_elected
          | _ -> incr bad)
        done;
        [
          string_of_int n;
          string_of_int runs;
          string_of_int !bad;
          str "%d" (runs - !bad);
        ])
      [ 2; 3; 4; 5 ]
  in
  let campaign =
    Table.make ~id:"E5b"
      ~title:"Election: random campaigns (one leader per run)"
      ~header:[ "n"; "runs"; "violations"; "unanimous runs" ]
      rows
  in
  [ mc; campaign ]

(* ------------------------------------------------------------------ *)
(* E6: renaming                                                        *)
(* ------------------------------------------------------------------ *)

let renaming_campaign ~runs ~n ~k =
  let m = (2 * n) - 1 in
  let bad = ref 0 in
  let steps = ref [] in
  for seed = 1 to runs do
    let rng = Rng.create ((seed * 6151) + (n * 100) + k) in
    let ids = List.init n (fun i -> (i + 1) * 13) in
    let cfg : RRen.config =
      {
        ids = Array.of_list ids;
        inputs = Array.make n ();
        namings = Array.init n (fun _ -> Naming.random rng m);
        rng = None;
        record_trace = false;
      }
    in
    let rt = RRen.create cfg in
    let participants = List.init k Fun.id in
    let sched (v : Schedule.view) =
      match
        List.filter (fun i -> v.kind i <> Schedule.Finished) participants
      with
      | [] -> None
      | cands -> Some (List.nth cands (Rng.int rng (List.length cands)))
    in
    let _ = RRen.run rt sched ~max_steps:(300 * n * n) in
    let budget = ref (20 * n) in
    while
      List.exists
        (fun i -> not (Protocol.is_decided (RRen.status rt i)))
        participants
      && !budget > 0
    do
      decr budget;
      List.iter
        (fun i -> ignore (RRen.run rt (Schedule.solo i) ~max_steps:(50 * m * m)))
        participants
    done;
    steps := float_of_int (RRen.clock rt) :: !steps;
    let names =
      List.filter_map
        (fun i ->
          match RRen.status rt i with
          | Protocol.Decided v -> Some v
          | _ -> None)
        participants
      |> List.sort compare
    in
    if names <> List.init k (fun i -> i + 1) then incr bad
  done;
  (!bad, Stats.summarize !steps)

let e6_renaming speed =
  let explore nam =
    ERen.explore
      {
        ids = [| 7; 13 |];
        inputs = [| (); () |];
        namings = [| Naming.identity 3; nam |];
      }
  in
  let total = ref 0 in
  let uniq_bad = ref 0 in
  let adapt_bad = ref 0 in
  let of_bad = ref 0 in
  List.iter
    (fun nam ->
      let g = explore nam in
      total := max !total (Array.length g.states);
      if
        Check.Props.distinct_outputs ~equal:Int.equal ~statuses:ERen.statuses
          g.states
        <> None
      then incr uniq_bad;
      if
        Check.Props.adaptive_range ~name_of:Fun.id ~statuses:ERen.statuses
          g.states
        <> None
      then incr adapt_bad;
      if ERen.check_obstruction_freedom g <> None then incr of_bad)
    (Naming.all 3);
  let mc =
    Table.make ~id:"E6a"
      ~title:
        "Fig 3 adaptive perfect renaming, n=2: exhaustive model check \
         (Thm 5.1-5.3)"
      ~header:
        [ "namings"; "max states"; "uniqueness"; "adaptivity";
          "OF-termination" ]
      [
        [
          "6";
          string_of_int !total;
          (if !uniq_bad = 0 then "ok" else "VIOLATED");
          (if !adapt_bad = 0 then "ok" else "VIOLATED");
          (if !of_bad = 0 then "ok" else "STUCK");
        ];
      ]
  in
  let runs = match speed with Quick -> 60 | Full -> 300 in
  let rows =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun k ->
            if k > n then None
            else
              let bad, steps = renaming_campaign ~runs ~n ~k in
              Some
                [
                  string_of_int n;
                  string_of_int k;
                  string_of_int runs;
                  string_of_int bad;
                  str "names = {1..%d}" k;
                  str "%.0f" steps.Stats.mean;
                ])
          [ 1; (n + 1) / 2; n ]
        |> List.sort_uniq compare)
      [ 2; 3; 4; 5 ]
  in
  let campaign =
    Table.make ~id:"E6b"
      ~title:
        "Fig 3 renaming: k of n participate under random schedules \
         (violations must be 0)"
      ~header:[ "n"; "k"; "runs"; "violations"; "acquired"; "mean steps" ]
      rows
  in
  [ mc; campaign ]

(* ------------------------------------------------------------------ *)
(* E7/E8/E9: the covering adversary                                    *)
(* ------------------------------------------------------------------ *)

let e7_covering_mutex speed =
  let ms = match speed with Quick -> [ 3; 5 ] | Full -> [ 3; 5; 7 ] in
  let rows =
    List.map
      (fun m ->
        match
          CovMutex.construct ~m ~q_input:() ~recruit_input:(fun _ -> ()) ()
        with
        | Error e -> [ string_of_int m; "-"; "-"; str "FAILED: %s" e; "-" ]
        | Ok o ->
          [
            string_of_int m;
            string_of_int (List.length o.write_set);
            Format.asprintf "%a" CovMutex.pp_success o.q_success;
            str "recruit %d: %s" (o.p_proc - 1)
              (Format.asprintf "%a" CovMutex.pp_success o.p_success);
            o.z_schedule_note;
          ])
      ms
  in
  [
    Table.make ~id:"E7"
      ~title:
        "Covering adversary vs Fig 1 (unknown number of processes): two \
         processes end up in the CS (Thm 6.2)"
      ~header:[ "m"; "|write(y,q)|"; "victim q"; "recruit"; "z-extension" ]
      rows;
  ]

let e8_covering_consensus speed =
  let unknown_row =
    let module C2 = Wrap.Fix_n (Coord.Consensus.P) (struct let n = 2 end) in
    let module Cov = Lowerbound.Covering.Make (C2) in
    match Cov.construct ~m:3 ~q_input:100 ~recruit_input:(fun _ -> 200) () with
    | Error e -> [ "unknown n (design n=2, m=3)"; "-"; "-"; str "FAILED: %s" e ]
    | Ok o ->
      [
        "unknown n (design n=2, m=3)";
        Format.asprintf "%a" Cov.pp_success o.q_success;
        Format.asprintf "%a" Cov.pp_success o.p_success;
        "agreement violated";
      ]
  in
  let ns = match speed with Quick -> [ 2; 3; 4 ] | Full -> [ 2; 3; 4; 5; 6 ] in
  let space_rows =
    List.map
      (fun n ->
        let m = n - 1 in
        let row =
          match n with
          | 2 ->
            let module C = Wrap.Fix_n (Coord.Consensus.P) (struct let n = 2 end) in
            let module Cov = Lowerbound.Covering.Make (C) in
            Cov.construct ~m ~q_input:100 ~recruit_input:(fun _ -> 200) ()
            |> Result.map (fun (o : Cov.outcome) ->
                   ( Format.asprintf "%a" Cov.pp_success o.q_success,
                     Format.asprintf "%a" Cov.pp_success o.p_success ))
          | 3 ->
            let module C = Wrap.Fix_n (Coord.Consensus.P) (struct let n = 3 end) in
            let module Cov = Lowerbound.Covering.Make (C) in
            Cov.construct ~m ~q_input:100 ~recruit_input:(fun _ -> 200) ()
            |> Result.map (fun (o : Cov.outcome) ->
                   ( Format.asprintf "%a" Cov.pp_success o.q_success,
                     Format.asprintf "%a" Cov.pp_success o.p_success ))
          | 4 ->
            let module C = Wrap.Fix_n (Coord.Consensus.P) (struct let n = 4 end) in
            let module Cov = Lowerbound.Covering.Make (C) in
            Cov.construct ~m ~q_input:100 ~recruit_input:(fun _ -> 200) ()
            |> Result.map (fun (o : Cov.outcome) ->
                   ( Format.asprintf "%a" Cov.pp_success o.q_success,
                     Format.asprintf "%a" Cov.pp_success o.p_success ))
          | 5 ->
            let module C = Wrap.Fix_n (Coord.Consensus.P) (struct let n = 5 end) in
            let module Cov = Lowerbound.Covering.Make (C) in
            Cov.construct ~m ~q_input:100 ~recruit_input:(fun _ -> 200) ()
            |> Result.map (fun (o : Cov.outcome) ->
                   ( Format.asprintf "%a" Cov.pp_success o.q_success,
                     Format.asprintf "%a" Cov.pp_success o.p_success ))
          | _ ->
            let module C = Wrap.Fix_n (Coord.Consensus.P) (struct let n = 6 end) in
            let module Cov = Lowerbound.Covering.Make (C) in
            Cov.construct ~m ~q_input:100 ~recruit_input:(fun _ -> 200) ()
            |> Result.map (fun (o : Cov.outcome) ->
                   ( Format.asprintf "%a" Cov.pp_success o.q_success,
                     Format.asprintf "%a" Cov.pp_success o.p_success ))
        in
        match row with
        | Error e -> [ str "n=%d, m=n-1=%d" n m; "-"; "-"; str "FAILED: %s" e ]
        | Ok (q, p) ->
          [ str "n=%d, m=n-1=%d" n m; q; p; "agreement violated" ])
      ns
  in
  [
    Table.make ~id:"E8"
      ~title:
        "Covering adversary vs Fig 2 consensus: unknown n, and n-1 \
         registers (Thm 6.3)"
      ~header:[ "setting"; "victim q decided"; "recruit decided"; "verdict" ]
      (unknown_row :: space_rows);
  ]

let e9_covering_renaming speed =
  let case ~label ~design_n ~m =
    let row =
      match design_n with
      | 2 ->
        let module Rn = Wrap.Fix_n (Coord.Renaming.P) (struct let n = 2 end) in
        let module Cov = Lowerbound.Covering.Make (Rn) in
        Cov.construct ~m ~q_input:() ~recruit_input:(fun _ -> ()) ()
        |> Result.map (fun (o : Cov.outcome) ->
               ( Format.asprintf "%a" Cov.pp_success o.q_success,
                 Format.asprintf "%a" Cov.pp_success o.p_success ))
      | 3 ->
        let module Rn = Wrap.Fix_n (Coord.Renaming.P) (struct let n = 3 end) in
        let module Cov = Lowerbound.Covering.Make (Rn) in
        Cov.construct ~m ~q_input:() ~recruit_input:(fun _ -> ()) ()
        |> Result.map (fun (o : Cov.outcome) ->
               ( Format.asprintf "%a" Cov.pp_success o.q_success,
                 Format.asprintf "%a" Cov.pp_success o.p_success ))
      | 4 ->
        let module Rn = Wrap.Fix_n (Coord.Renaming.P) (struct let n = 4 end) in
        let module Cov = Lowerbound.Covering.Make (Rn) in
        Cov.construct ~m ~q_input:() ~recruit_input:(fun _ -> ()) ()
        |> Result.map (fun (o : Cov.outcome) ->
               ( Format.asprintf "%a" Cov.pp_success o.q_success,
                 Format.asprintf "%a" Cov.pp_success o.p_success ))
      | _ ->
        let module Rn = Wrap.Fix_n (Coord.Renaming.P) (struct let n = 5 end) in
        let module Cov = Lowerbound.Covering.Make (Rn) in
        Cov.construct ~m ~q_input:() ~recruit_input:(fun _ -> ()) ()
        |> Result.map (fun (o : Cov.outcome) ->
               ( Format.asprintf "%a" Cov.pp_success o.q_success,
                 Format.asprintf "%a" Cov.pp_success o.p_success ))
    in
    match row with
    | Error e -> [ label; "-"; "-"; str "FAILED: %s" e ]
    | Ok (q, p) -> [ label; q; p; "name 1 duplicated" ]
  in
  let extra =
    match speed with
    | Quick -> []
    | Full -> [ case ~label:"n=5, m=n-1=4" ~design_n:5 ~m:4 ]
  in
  [
    Table.make ~id:"E9"
      ~title:
        "Covering adversary vs Fig 3 renaming: unknown n, and n-1 registers \
         (Thm 6.5)"
      ~header:[ "setting"; "victim q decided"; "recruit decided"; "verdict" ]
      ([
         case ~label:"unknown n (design n=2, m=3)" ~design_n:2 ~m:3;
         case ~label:"n=3, m=n-1=2" ~design_n:3 ~m:2;
         case ~label:"n=4, m=n-1=3" ~design_n:4 ~m:3;
       ]
      @ extra);
  ]

(* ------------------------------------------------------------------ *)
(* E10: what prior agreement buys                                      *)
(* ------------------------------------------------------------------ *)

let e10_named_baselines speed =
  let mutex_row name explore_flat =
    let f = explore_flat () in
    [
      name;
      ok_or "VIOLATED" (Check.Mutex_props.mutual_exclusion f);
      ok_or "VIOLATED" (Check.Mutex_props.deadlock_freedom f);
    ]
  in
  let burns_n = match speed with Quick -> [ 2; 3 ] | Full -> [ 2; 3; 4 ] in
  let mutex_rows =
    mutex_row "Peterson (n=2, m=3, named)" (fun () ->
        EPet.to_flat
          (EPet.explore (EPet.config ~ids:[ 1; 2 ] ~inputs:[ (); () ] ())))
    :: List.map
         (fun n ->
           let ids = List.init n (fun i -> i + 1) in
           mutex_row
             (str "Burns one-bit (n=%d, m=n, named)" n)
             (fun () ->
               EBurns.to_flat
                 (EBurns.explore
                    (EBurns.config ~ids
                       ~inputs:(List.map (fun _ -> ()) ids)
                       ()))))
         burns_n
    @ [
        mutex_row "Tournament of Petersons (n=4, m=3(n-1), named)" (fun () ->
            ETour.to_flat
              (ETour.explore
                 (ETour.config ~ids:[ 1; 2; 3; 4 ]
                    ~inputs:[ (); (); (); () ]
                    ())));
        mutex_row "Lamport fast mutex (n=3, m=n+2, named)" (fun () ->
            EFast.to_flat
              (EFast.explore
                 (EFast.config ~ids:[ 1; 2; 3 ] ~inputs:[ (); (); () ] ())));
      ]
  in
  let mutex_table =
    Table.make ~id:"E10a"
      ~title:
        "Named-register mutex baselines pass the same checkers (§3.2 / Thm \
         6.1 contrast)"
      ~header:[ "algorithm"; "mutual excl"; "deadlock-free" ]
      ~notes:
        [
          "Burns needs only n registers for n processes and works for even \
           register counts - both impossible anonymously (Thm 3.1/3.4).";
          "Lamport's fast path enters in 5 shared accesses regardless of n; \
           anonymously even a solo process must scan all m registers.";
        ]
      mutex_rows
  in
  let ca_row =
    let m = Baseline.Ca_consensus.P.registers_for ~n:2 ~rounds:2 in
    let g = ECa.explore (ECa.config ~m ~ids:[ 1; 2 ] ~inputs:[ 100; 200 ] ()) in
    [
      str "commit-adopt consensus (n=2, m=%d, named)" m;
      ok_or "VIOLATED"
        (Check.Props.agreement ~equal:Int.equal ~statuses:ECa.statuses
           g.states);
      ok_or "VIOLATED"
        (Check.Props.validity
           ~allowed:(fun v -> v = 100 || v = 200)
           ~statuses:ECa.statuses g.states);
    ]
  in
  let chain_row =
    let g = EChain.explore (EChain.config ~ids:[ 7; 13 ] ~inputs:[ (); () ] ()) in
    [
      "chain renaming via ordered elections (n=2, named)";
      ok_or "VIOLATED"
        (Check.Props.distinct_outputs ~equal:Int.equal
           ~statuses:EChain.statuses g.states);
      ok_or "VIOLATED"
        (Check.Props.adaptive_range ~name_of:Fun.id ~statuses:EChain.statuses
           g.states);
    ]
  in
  let task_table =
    Table.make ~id:"E10b"
      ~title:"Named-register task baselines"
      ~header:[ "algorithm"; "safety"; "second property" ]
      ~notes:
        [
          "For consensus the columns are agreement/validity; for renaming, \
           uniqueness/adaptivity.";
          "The chain layout (object k at block k) is exactly the trivial \
           solution §5 says is impossible without agreed names.";
        ]
      [ ca_row; chain_row ]
  in
  let covering_row =
    match
      CovMutex.construct ~respect_names:true ~m:3 ~q_input:()
        ~recruit_input:(fun _ -> ())
        ()
    with
    | Error e -> [ "covering adversary, namings fixed to identity"; e ]
    | Ok _ -> [ "covering adversary, namings fixed to identity"; "UNEXPECTEDLY SUCCEEDED" ]
  in
  let covering_table =
    Table.make ~id:"E10c"
      ~title:"The covering adversary dies without naming freedom"
      ~header:[ "experiment"; "outcome" ]
      ~notes:
        [
          "With fixed names every recruit's first write is pinned, so the \
           adversary cannot cover the victim's write set: the §6 proofs are \
           specific to anonymous registers.";
        ]
      [ covering_row ]
  in
  [ mutex_table; task_table; covering_table ]

(* ------------------------------------------------------------------ *)
(* E11: choice coordination (§7)                                       *)
(* ------------------------------------------------------------------ *)

module Ccp_campaign (C : Protocol.PROTOCOL
                       with type input = unit
                        and type output = int) =
struct
  module R = Runtime.Make (C)

  let run ~runs ~n =
    let failures = ref 0 in
    let steps = ref [] in
    for seed = 1 to runs do
      let rng = Rng.create ((seed * 48271) + n) in
      let cfg : R.config =
        {
          ids = Array.init n (fun i -> (i + 1) * 3);
          inputs = Array.make n ();
          namings = Array.init n (fun _ -> Naming.random rng 2);
          rng = Some (Rng.split rng);
          record_trace = false;
        }
      in
      let rt = R.create cfg in
      match R.run rt (Schedule.random rng) ~max_steps:4000 with
      | R.All_decided -> steps := float_of_int (R.clock rt) :: !steps
      | _ -> incr failures
    done;
    (!failures, if !steps = [] then None else Some (Stats.summarize !steps))
end

module Ccp_cap1 = Coord.Ccp.Make (struct
  let cap = 1
  let deterministic = false
end)

module Ccp_cap2 = Coord.Ccp.Make (struct
  let cap = 2
  let deterministic = false
end)

module Ccp_cap4 = Coord.Ccp.Make (struct
  let cap = 4
  let deterministic = false
end)

module Ccp1 = Ccp_campaign (Ccp_cap1)
module Ccp2 = Ccp_campaign (Ccp_cap2)
module Ccp4 = Ccp_campaign (Ccp_cap4)
module Ccp8 = Ccp_campaign (Coord.Ccp.P)

let e11_ccp speed =
  let runs = match speed with Quick -> 300 | Full -> 2000 in
  let cap_row cap =
    let failures, steps =
      match cap with
      | 1 -> Ccp1.run ~runs ~n:2
      | 2 -> Ccp2.run ~runs ~n:2
      | 4 -> Ccp4.run ~runs ~n:2
      | _ -> Ccp8.run ~runs ~n:2
    in
    [
      string_of_int cap;
      string_of_int runs;
      string_of_int failures;
      str "%.2f%%" (100. *. float_of_int failures /. float_of_int runs);
      (match steps with
      | Some s -> str "%.0f" s.Stats.mean
      | None -> "-");
    ]
  in
  let rate =
    Table.make ~id:"E11a"
      ~title:
        "Rabin-style randomized choice coordination on 2 anonymous RMW \
         registers: non-termination rate vs level cap (cf. Rabin's 1 - \
         2^{-m/2})"
      ~header:[ "level cap"; "runs"; "non-terminating"; "rate"; "mean steps" ]
      (List.map cap_row [ 1; 2; 4; 8 ])
  in
  let det_verdict, _ =
    SymCcpDet.run ~ids:[ 7; 13 ] ~inputs:[ (); () ] ~m:2 ~d:2 ()
  in
  let det =
    Table.make ~id:"E11b"
      ~title:"Deterministic choice coordination dies under symmetry"
      ~header:[ "experiment"; "outcome" ]
      ~notes:
        [
          "Read/write anonymous registers cannot even solve consensus-like \
           tasks wait-free; with RMW, randomization is what defeats the \
           symmetric adversary - none of this transfers to the paper's \
           read/write model (§7).";
        ]
      [
        [
          "deterministic variant, lock step, antipodal namings";
          Format.asprintf "%a" Lowerbound.Symmetry.pp_verdict det_verdict;
        ];
      ]
  in
  let kccp =
    let module EK = Check.Explore.Make (Coord.Ccp_k.P3) in
    let violations namings =
      let cfg : EK.config =
        { ids = [| 7; 13 |]; inputs = [| (); () |]; namings }
      in
      let g = EK.explore cfg in
      let viol = ref 0 in
      Array.iter
        (fun st ->
          let choices =
            Array.to_list
              (Array.mapi
                 (fun p l ->
                   match Coord.Ccp_k.P3.status l with
                   | Protocol.Decided loc ->
                     Some (Naming.apply cfg.namings.(p) loc)
                   | _ -> None)
                 st.EK.locals)
            |> List.filter_map Fun.id
          in
          match choices with
          | a :: rest -> if List.exists (( <> ) a) rest then incr viol
          | [] -> ())
        g.states;
      !viol
    in
    let same = violations [| Naming.identity 3; Naming.rotation 3 1 |] in
    let opposite = violations [| Naming.identity 3; Naming.of_array [| 0; 2; 1 |] |] in
    Table.make ~id:"E11c"
      ~title:
        "k = 3 alternatives: the naive generalization of the racing scheme \
         is refuted by the checker"
      ~header:[ "relative naming orientation"; "disagreement states" ]
      ~notes:
        [
          "With k = 2 all namings are orientation-compatible, so the \
           2-register scheme is safe for every naming; at k = 3 opposite \
           ring orientations break it - multi-alternative choice \
           coordination needs the machinery of the paper's [13].";
        ]
      [
        [ "same (rotations)"; str "%d (safe)" same ];
        [ "opposite (reversed ring)"; str "%d (UNSAFE, as refuted)" opposite ];
      ]
  in
  [ rate; det; kccp ]

(* ------------------------------------------------------------------ *)
(* E12: starvation (one of §8's open directions, small-instance data)  *)
(* ------------------------------------------------------------------ *)

let e12_starvation _speed =
  let verdicts f =
    ( ok_or "VIOLATED" (Check.Mutex_props.deadlock_freedom f),
      match Check.Mutex_props.starvation_freedom f with
      | None -> "ok"
      | Some (p, v) -> str "p%d starves (cycle of %d states)" p (List.length v.states) )
  in
  let fig1 =
    let g =
      EMutex.explore
        {
          ids = [| 7; 13 |];
          inputs = [| (); () |];
          namings = [| Naming.identity 3; Naming.rotation 3 1 |];
        }
    in
    verdicts (EMutex.to_flat g)
  in
  let peterson =
    verdicts
      (EPet.to_flat
         (EPet.explore (EPet.config ~ids:[ 1; 2 ] ~inputs:[ (); () ] ())))
  in
  let burns =
    verdicts
      (EBurns.to_flat
         (EBurns.explore
            (EBurns.config ~ids:[ 1; 2; 3 ] ~inputs:[ (); (); () ] ())))
  in
  let tournament =
    verdicts
      (ETour.to_flat
         (ETour.explore
            (ETour.config ~ids:[ 1; 2; 3; 4 ] ~inputs:[ (); (); (); () ] ())))
  in
  let row name (df, sf) = [ name; df; sf ] in
  [
    Table.make ~id:"E12"
      ~title:
        "Starvation-freedom (exact check): texture for §8's open problem"
      ~header:[ "algorithm"; "deadlock-free"; "starvation-free" ]
      ~notes:
        [
          "Fig 1 satisfies the paper's two requirements but admits a fair \
           cycle in which one process tries forever while the other cycles \
           through its CS; Peterson's victim register rules such cycles \
           out; Burns' one-bit algorithm starves high indices - the \
           classic trade-off, reproduced exactly.";
        ]
      [
        row "Fig 1 anonymous (n=2, m=3)" fig1;
        row "Peterson named (n=2)" peterson;
        row "Burns one-bit named (n=3)" burns;
        row "Tournament named (n=4)" tournament;
      ];
  ]

(* ------------------------------------------------------------------ *)
(* E13: the other symmetry variant (§2): arbitrary comparisons         *)
(* ------------------------------------------------------------------ *)

module ECmp = Check.Explore.Make (Coord.Cmp_mutex.P)
module SymCmp = Lowerbound.Symmetry.Make (Coord.Cmp_mutex.P)

let e13_comparisons speed =
  let ms = match speed with Quick -> [ 2; 3; 4 ] | Full -> [ 2; 3; 4; 5 ] in
  let rows =
    List.map
      (fun m ->
        let me_bad = ref 0 and df_bad = ref 0 and states = ref 0 in
        let namings = Naming.all m in
        List.iter
          (fun nam ->
            let g =
              ECmp.explore
                {
                  ids = [| 7; 13 |];
                  inputs = [| (); () |];
                  namings = [| Naming.identity m; nam |];
                }
            in
            states := max !states (Array.length g.states);
            let f = ECmp.to_flat g in
            if Check.Mutex_props.mutual_exclusion f <> None then incr me_bad;
            if Check.Mutex_props.deadlock_freedom f <> None then incr df_bad)
          namings;
        let lock_step =
          if m mod 2 = 0 then
            let v, _ =
              SymCmp.run ~max_steps:5_000 ~ids:[ 7; 13 ] ~inputs:[ (); () ]
                ~m ~d:2 ()
            in
            Format.asprintf "%a" Lowerbound.Symmetry.pp_verdict v
          else "n/a (odd m)"
        in
        [
          string_of_int m;
          string_of_int (List.length namings);
          string_of_int !states;
          (if !me_bad = 0 then "ok" else "VIOLATED");
          (if !df_bad = 0 then "ok" else "VIOLATED");
          lock_step;
        ])
      ms
  in
  [
    Table.make ~id:"E13"
      ~title:
        "Symmetry with arbitrary comparisons (§2's second variant): a \
         2-process mutex for EVERY m >= 2 (extension beyond the paper)"
      ~header:
        [ "m"; "namings"; "max states"; "mutual excl"; "deadlock-free";
          "lock-step attack" ]
      ~notes:
        [
          "Same structure as Fig 1 but ties are broken by comparing ids: \
           the smaller defers, the larger insists. Theorem 3.1's odd-m law \
           is thus specific to equality-only symmetry.";
        ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* E15: property 1 of 3.2 - "ignore the extra registers" needs names  *)
(* ------------------------------------------------------------------ *)

module Fig1_pinned3 = Wrap.Fix_m (Coord.Amutex.P) (struct let m = 3 end)
module EFixm = Check.Explore.Make (Fig1_pinned3)

let e15_property1 _speed =
  let case label namings =
    let cfg : EFixm.config =
      { ids = [| 7; 13 |]; inputs = [| (); () |]; namings }
    in
    let g = EFixm.explore cfg in
    let f = EFixm.to_flat g in
    [
      label;
      string_of_int (Array.length g.states);
      ok_or "VIOLATED" (Check.Mutex_props.mutual_exclusion f);
      ok_or "VIOLATED" (Check.Mutex_props.deadlock_freedom f);
    ]
  in
  [
    Table.make ~id:"E15"
      ~title:
        "Property 1 of 3.2, executable: Fig 1 (m=3) dropped into 5 \
         registers, ignoring two - correct iff the processes ignore the \
         SAME two"
      ~header:[ "window assignment"; "states"; "mutual excl"; "deadlock-free" ]
      ~notes:
        [
          "With named registers every process ignores the same excess \
           registers, so an l-register algorithm runs in any m >= l; \
           anonymously the ignored set is an artifact of each process's \
           private naming, and every misalignment breaks a requirement - \
           which is why the property fails in the anonymous model.";
        ]
      [
        case "aligned: both on {0,1,2}"
          [| Naming.identity 5; Naming.identity 5 |];
        case "aligned: both on {2,3,4}"
          [|
            Naming.of_array [| 2; 3; 4; 0; 1 |];
            Naming.of_array [| 2; 3; 4; 1; 0 |];
          |];
        case "misaligned: {0,1,2} vs {2,3,4} (overlap 1)"
          [| Naming.identity 5; Naming.of_array [| 2; 3; 4; 0; 1 |] |];
        case "misaligned: {0,1,2} vs {1,2,3} (overlap 2)"
          [| Naming.identity 5; Naming.of_array [| 1; 2; 3; 0; 4 |] |];
        case "disjoint windows: {0,1,2} vs {3,4,0}"
          [| Naming.identity 5; Naming.of_array [| 3; 4; 0; 1; 2 |] |];
      ];
  ]

(* ------------------------------------------------------------------ *)
(* E16: testing vs model checking                                      *)
(* ------------------------------------------------------------------ *)

module HuntFig1 = Check.Hunt.Make (Coord.Amutex.P)
module HuntWin = Check.Hunt.Make (Fig1_pinned3)

let e16_hunting speed =
  let attempts = match speed with Quick -> 400 | Full -> 5000 in
  (* the known n=3, m=3 mutual-exclusion violation: exhaustive finds it *)
  let exhaustive =
    let cfg : EMutex.config =
      {
        ids = [| 7; 13; 21 |];
        inputs = [| (); (); () |];
        namings =
          [| Naming.rotation 3 0; Naming.rotation 3 1; Naming.rotation 3 2 |];
      }
    in
    let g = EMutex.explore cfg in
    let f = EMutex.to_flat g in
    match Check.Mutex_props.mutual_exclusion f with
    | Some v -> str "VIOLATED (state %d of %d)" v.state (Array.length g.states)
    | None -> "ok (?)"
  in
  let hunted =
    let o, _ =
      HuntFig1.hunt ~attempts ~violation:HuntFig1.mutex_violation
        ~ids:[ 7; 13; 21 ] ~inputs:[ (); (); () ] ~m:3 ()
    in
    match o.Check.Hunt.witness_seed with
    | Some seed -> str "found at attempt %d" seed
    | None -> str "NOT FOUND in %d attempts / %d steps" o.attempts_made o.steps_taken
  in
  let window_hunted =
    let o, _ =
      HuntWin.hunt ~attempts ~violation:HuntWin.mutex_violation
        ~ids:[ 7; 13 ] ~inputs:[ (); () ] ~m:5 ()
    in
    match o.Check.Hunt.witness_seed with
    | Some seed ->
      str "found at attempt %d (%d steps)" seed o.Check.Hunt.steps_taken
    | None -> "NOT FOUND"
  in
  [
    Table.make ~id:"E16"
      ~title:
        "Testing vs model checking: the same bug class, two detection \
         methods"
      ~header:[ "instance / bug"; "exhaustive checker"; "randomized hunter" ]
      ~notes:
        [
          "The covering-style overlap needs a precisely timed stale write; \
           random and bursty schedules practically never produce it, while \
           the checker enumerates it immediately - the reason this \
           reproduction leans on exhaustive exploration and executable \
           proofs rather than stress testing.";
        ]
      [
        [ "Fig 1 generalization, n=3, m=3 (ME)"; exhaustive; hunted ];
        [
          "misaligned ignore-windows, m:=3 in 5 (E15, ME)";
          "VIOLATED (E15)";
          window_hunted;
        ];
      ];
  ]

(* ------------------------------------------------------------------ *)
(* E14: the multicore backend (real domains, real atomics)             *)
(* ------------------------------------------------------------------ *)

module PCons = Parallel.Prun.Make (Coord.Consensus.P)
module PRen = Parallel.Prun.Make (Coord.Renaming.P)
module PMutex = Parallel.Prun.Make (Coord.Amutex.P)
module PCcp = Parallel.Prun.Make (Coord.Ccp.P)

let e14_multicore speed =
  let rounds = match speed with Quick -> 5 | Full -> 25 in
  let consensus_row =
    let bad = ref 0 and decided_runs = ref 0 in
    for round = 1 to rounds do
      let n = 2 + (round mod 2) in
      let m = (2 * n) - 1 in
      let rng = Rng.create (round * 13) in
      let inputs = Array.init n (fun i -> (i + 1) * 100) in
      let cfg : PCons.config =
        {
          ids = Array.init n (fun i -> (i + 1) * 7);
          inputs;
          namings = Array.init n (fun _ -> Naming.random rng m);
          seed = round;
        }
      in
      let o = PCons.run_decide ~step_budget:500_000 cfg in
      let ds =
        Array.to_list o.results |> List.filter_map (fun r -> r.PCons.output)
      in
      (match ds with
      | [] -> ()
      | v :: rest ->
        incr decided_runs;
        if
          (not (List.for_all (( = ) v) rest))
          || not (Array.exists (( = ) v) inputs)
        then incr bad)
    done;
    [
      "Fig 2 consensus (2-3 domains)";
      string_of_int rounds;
      str "%d" !decided_runs;
      string_of_int !bad;
    ]
  in
  let renaming_row =
    let bad = ref 0 and decided_runs = ref 0 in
    for round = 1 to rounds do
      let n = 2 + (round mod 2) in
      let m = (2 * n) - 1 in
      let rng = Rng.create (round * 29) in
      let cfg : PRen.config =
        {
          ids = Array.init n (fun i -> (i + 1) * 13);
          inputs = Array.make n ();
          namings = Array.init n (fun _ -> Naming.random rng m);
          seed = round;
        }
      in
      let o = PRen.run_decide ~step_budget:500_000 cfg in
      let names =
        Array.to_list o.results |> List.filter_map (fun r -> r.PRen.output)
      in
      if names <> [] then incr decided_runs;
      if
        List.sort_uniq compare names <> List.sort compare names
        || List.exists (fun v -> v < 1 || v > n) names
      then incr bad
    done;
    [
      "Fig 3 renaming (2-3 domains)";
      string_of_int rounds;
      str "%d" !decided_runs;
      string_of_int !bad;
    ]
  in
  let mutex_row =
    let bad = ref 0 and sessions_total = ref 0 in
    for round = 1 to rounds do
      let m = 3 + (2 * (round mod 2)) in
      let rng = Rng.create (round * 41) in
      let cfg : PMutex.config =
        {
          ids = [| 7; 13 |];
          inputs = [| (); () |];
          namings = Array.init 2 (fun _ -> Naming.random rng m);
          seed = round;
        }
      in
      let o = PMutex.run_sessions ~step_budget:300_000 ~sessions:50 cfg in
      if o.mutex_violation then incr bad;
      sessions_total :=
        !sessions_total
        + Array.fold_left (fun acc r -> acc + r.PMutex.cs_entries) 0 o.results
    done;
    [
      "Fig 1 mutex (2 domains, 50 sessions each)";
      string_of_int rounds;
      str "%d CS entries" !sessions_total;
      string_of_int !bad;
    ]
  in
  let ccp_row =
    let bad = ref 0 and decided_runs = ref 0 in
    for round = 1 to rounds do
      let n = 2 + (round mod 3) in
      let rng = Rng.create (round * 53) in
      let cfg : PCcp.config =
        {
          ids = Array.init n (fun i -> (i + 1) * 3);
          inputs = Array.make n ();
          namings = Array.init n (fun _ -> Naming.random rng 2);
          seed = round;
        }
      in
      let o = PCcp.run_decide ~step_budget:200_000 cfg in
      let phys =
        Array.to_list
          (Array.mapi
             (fun i (r : PCcp.proc_result) ->
               Option.map
                 (fun loc -> Naming.apply cfg.namings.(i) loc)
                 r.output)
             o.results)
        |> List.filter_map Fun.id
      in
      (match phys with
      | [] -> ()
      | a :: rest ->
        incr decided_runs;
        if List.exists (( <> ) a) rest then incr bad)
    done;
    [
      "choice coordination (2-4 domains, RMW atomics)";
      string_of_int rounds;
      str "%d" !decided_runs;
      string_of_int !bad;
    ]
  in
  [
    Table.make ~id:"E14"
      ~title:
        "Multicore backend: real OCaml domains over seq-cst atomics (the OS \
         as adversary)"
      ~header:[ "workload"; "runs"; "progress"; "safety violations" ]
      ~notes:
        [
          "The simulator remains the stronger adversary (it chooses the \
           interleavings); this backend checks the algorithms survive real \
           preemptive execution unchanged.";
        ]
      [ consensus_row; renaming_row; mutex_row; ccp_row ];
  ]

(* ------------------------------------------------------------------ *)
(* E17: fairness in the long run (companion to E12's exact verdicts)   *)
(* ------------------------------------------------------------------ *)

(* Drive two processes with a biased random scheduler (p0 gets 70% of the
   steps) and report how the critical-section entries split. A
   starvation-free algorithm keeps the split near alternation regardless
   of bias; a merely deadlock-free one lets the favored process pull
   ahead. *)
module Fairness (P : Protocol.PROTOCOL with type input = unit) = struct
  module R = Runtime.Make (P)

  let split ~m ~ids ~steps ~seed =
    let rt =
      R.create
        (R.simple_config ~m ~ids ~inputs:(List.map (fun _ -> ()) ids) ())
    in
    let rng = Rng.create seed in
    let entries = [| 0; 0 |] in
    for _ = 1 to steps do
      let i = if Rng.int rng 10 < 7 then 0 else 1 in
      if R.kind rt i <> Schedule.Finished then begin
        let e = R.step rt i in
        if Trace.enters_critical e then entries.(i) <- entries.(i) + 1
      end
    done;
    entries
end

module FairFig1 = Fairness (Coord.Amutex.P)
module FairPet = Fairness (Baseline.Peterson.P)
module FairFast = Fairness (Baseline.Fast_mutex.P)

let e17_fairness speed =
  let steps = match speed with Quick -> 60_000 | Full -> 400_000 in
  let fig1 = FairFig1.split ~m:3 ~ids:[ 7; 13 ] ~steps ~seed:11 in
  let peterson = FairPet.split ~m:3 ~ids:[ 1; 2 ] ~steps ~seed:11 in
  let fast = FairFast.split ~m:4 ~ids:[ 1; 2 ] ~steps ~seed:11 in
  let row name e =
    let total = e.(0) + e.(1) in
    [
      name;
      string_of_int total;
      str "%d / %d" e.(0) e.(1);
      (if total = 0 then "-"
       else
         str "%.0f%% / %.0f%%"
           (100. *. float_of_int e.(0) /. float_of_int total)
           (100. *. float_of_int e.(1) /. float_of_int total));
    ]
  in
  [
    Table.make ~id:"E17"
      ~title:
        "Long-run fairness under a 70/30-biased random scheduler (companion \
         to E12)"
      ~header:[ "algorithm"; "CS entries"; "split p0/p1"; "share" ]
      ~notes:
        [
          "Peterson's victim register forces near-alternation regardless of \
           scheduling bias; Fig 1 and Lamport's fast mutex are only \
           deadlock-free, so the favored process can take a visibly larger \
           share (E12 shows outright starvation is reachable).";
        ]
      [
        row "Fig 1 anonymous (m=3)" fig1;
        row "Peterson named" peterson;
        row "Lamport fast named" fast;
      ];
  ]

(* ------------------------------------------------------------------ *)
(* E18: the frontier-parallel model checker                            *)
(* ------------------------------------------------------------------ *)

(* Cross-validates the parallel [Explore.explore_with_stats] against the
   sequential oracle on every protocol family: the graphs must be
   bit-identical (same state numbering, same transition lists, same
   completeness flag), so every verdict the parallel checker produces is
   the sequential checker's verdict. Throughputs are wall-clock and
   host-dependent. *)
module ParCheck (P : Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)

  let row ~label ~domains (cfg : E.config) =
    let gs, ss = E.explore_with_stats cfg in
    let gp, sp = E.explore_with_stats ~domains cfg in
    let identical =
      gs.states = gp.states && gs.succs = gp.succs && gs.complete = gp.complete
    in
    [
      label;
      string_of_int domains;
      string_of_int ss.Check.Checker_stats.n_states;
      string_of_int sp.Check.Checker_stats.n_states;
      (if identical then "bit-identical" else "DIVERGED");
      str "%.0f / %.0f"
        (Check.Checker_stats.states_per_sec ss /. 1e3)
        (Check.Checker_stats.states_per_sec sp /. 1e3);
      str "%.2fx"
        (ss.Check.Checker_stats.elapsed_s /. sp.Check.Checker_stats.elapsed_s);
    ]
end

module PchkMutex = ParCheck (Coord.Amutex.P)
module PchkCons = ParCheck (Coord.Consensus.P)
module PchkRen = ParCheck (Coord.Renaming.P)
module PchkCcp = ParCheck (Coord.Ccp.P)
module PchkBurns = ParCheck (Baseline.Burns.P)

let e18_parallel_checker speed =
  let domains = match speed with Quick -> 2 | Full -> 4 in
  let rot2 m = [| Naming.identity m; Naming.rotation m 1 |] in
  let big =
    match speed with
    | Quick -> []
    | Full ->
      [
        PchkMutex.row ~label:"Fig 1 mutex (m=5)" ~domains
          { ids = [| 7; 13 |]; inputs = [| (); () |]; namings = rot2 5 };
      ]
  in
  [
    Table.make ~id:"E18"
      ~title:
        "Frontier-parallel model checker vs the sequential oracle \
         (generation-synchronized BFS, chunks mapped on every domain and \
         interned in order on domain 0)"
      ~header:
        [
          "instance";
          "domains";
          "states (seq)";
          "states (par)";
          "graphs";
          "kstates/s seq/par";
          "speedup";
        ]
      ~notes:
        [
          "State ids are assigned by a sequential scan over each \
           generation's candidates in discovery order, so the parallel \
           graph is bit-identical to the sequential one and every \
           property verdict transfers; speedups are wall-clock on the \
           current host (below 1x on a single core).";
        ]
      ([
         PchkMutex.row ~label:"Fig 1 mutex (m=3)" ~domains
           { ids = [| 7; 13 |]; inputs = [| (); () |]; namings = rot2 3 };
         PchkCons.row ~label:"Fig 2 consensus (m=3)" ~domains
           { ids = [| 7; 13 |]; inputs = [| 100; 200 |]; namings = rot2 3 };
         PchkRen.row ~label:"Fig 3 renaming (m=3)" ~domains
           { ids = [| 7; 13 |]; inputs = [| (); () |]; namings = rot2 3 };
         PchkCcp.row ~label:"CCP (m=2)" ~domains
           { ids = [| 7; 13 |]; inputs = [| (); () |]; namings = rot2 2 };
         PchkBurns.row ~label:"Burns named (n=3)" ~domains
           (PchkBurns.E.config ~ids:[ 1; 2; 3 ] ~inputs:[ (); (); () ] ());
       ]
      @ big);
  ]

(* ------------------------------------------------------------------ *)
(* E19: crash tolerance — the dividing line under crash-stops          *)
(* ------------------------------------------------------------------ *)

(* Sweeps every single-crash plan (each process, each crash point up to a
   bound) through the crash-aware checker: obstruction-free decision
   tasks must still decide for the survivors, while Figure 1's mutex is
   expected to wedge when the peer crashes inside the critical section —
   the crashed process's registers keep their last-written values, which
   is exactly the frozen covering of Theorem 6.2. *)
module CrashTol (P : Protocol.PROTOCOL with type output = int) = struct
  module CP = Check.Crash_props.Make (P)

  let row ~label ~n ~m ?namings ?(distinct = false) ~inputs ~max_step ~seed
      ~allowed () =
    let plans = Fault.single_crashes ~n ~max_step in
    let fired = ref 0
    and stuck = ref 0
    and disagree = ref 0
    and invalid = ref 0 in
    List.iter
      (fun plan ->
        let r =
          CP.run_plan ~seed ?namings
            ~ids:(List.init n (fun i -> ((i + 1) * 17) + 1))
            ~inputs ~m plan
        in
        if r.CP.applied <> [] then incr fired;
        if not (CP.crash_obstruction_free r) then incr stuck;
        (* renaming-style tasks promise pairwise-distinct outputs, the
           consensus-style ones a common one *)
        (if distinct then begin
           let outs = List.map snd r.CP.decided in
           if List.length (List.sort_uniq Int.compare outs) <> List.length outs
           then incr disagree
         end
         else if CP.agreement_under_crashes ~equal:Int.equal r <> None then
           incr disagree);
        if CP.validity_under_crashes ~allowed r <> None then incr invalid)
      plans;
    [
      label;
      string_of_int (List.length plans);
      string_of_int !fired;
      (if !stuck = 0 then "all survivors decided" else str "%d STUCK" !stuck);
      (if !disagree = 0 && !invalid = 0 then "ok"
       else str "%d VIOLATED" (!disagree + !invalid));
    ]
end

module CtCons = CrashTol (Coord.Consensus.P)
module CtElec = CrashTol (Coord.Election.P)
module CtRen = CrashTol (Coord.Renaming.P)
module CtCcp = CrashTol (Coord.Ccp.P)
module CrashMutex = Check.Crash_props.Make (Coord.Amutex.P)

(* A protocol whose id-1 process blocks inside its first step until the
   release flag is raised: the one way to hang a domain that no step
   budget can bound, which is what the Prun watchdog exists to catch. *)
let e19_release = Atomic.make false

module Hang_p = struct
  module Value = struct
    type t = int

    let init = 0
    let equal = Int.equal
    let compare = Int.compare
    let pp = Format.pp_print_int
  end

  type input = unit
  type output = int
  type local = Init | Stuck | Done

  let name = "hang"
  let default_registers ~n:_ = 1
  let start ~n:_ ~m:_ ~id:_ () = Init

  let step ~n:_ ~m:_ ~id = function
    | Init ->
      if id = 1 then begin
        while not (Atomic.get e19_release) do
          Domain.cpu_relax ()
        done;
        Protocol.Internal Stuck
      end
      else Protocol.Internal Done
    | Stuck | Done -> Protocol.Internal Done

  let status = function
    | Init | Stuck -> Protocol.Trying
    | Done -> Protocol.Decided 0

  let compare_local = Stdlib.compare
  let symmetric = false
  let map_value_ids _ v = v
  let map_local_ids _ l = l

  let pp_local ppf l =
    Format.pp_print_string ppf
      (match l with Init -> "init" | Stuck -> "stuck" | Done -> "done")

  let pp_input ppf () = Format.pp_print_string ppf "()"
  let pp_output = Format.pp_print_int
end

module PHang = Parallel.Prun.Make (Hang_p)

let e19_crash_tolerance speed =
  let max_step = match speed with Quick -> 12 | Full -> 40 in
  let matrix =
    let rot n m = Array.init n (fun k -> Naming.rotation m k) in
    [
      CtCons.row ~label:"Fig 2 consensus (n=3, m=5)" ~n:3 ~m:5
        ~namings:(rot 3 5)
        ~inputs:[ 100; 200; 300 ] ~max_step ~seed:5
        ~allowed:(fun v -> List.mem v [ 100; 200; 300 ])
        ();
      CtElec.row ~label:"election (n=3, m=5)" ~n:3 ~m:5 ~namings:(rot 3 5)
        ~inputs:[ (); (); () ] ~max_step ~seed:5
        ~allowed:(fun v -> List.mem v (List.init 3 (fun i -> ((i + 1) * 17) + 1)))
        ();
      CtRen.row ~label:"Fig 3 renaming (n=3, m=5)" ~n:3 ~m:5 ~namings:(rot 3 5)
        ~distinct:true
        ~inputs:[ (); (); () ] ~max_step ~seed:5
        ~allowed:(fun v -> v >= 1 && v <= 3)
        ();
      CtCcp.row ~label:"choice coordination (n=2, m=2)" ~n:2 ~m:2
        ~inputs:[ (); () ] ~max_step ~seed:5
        ~allowed:(fun v -> v >= 0 && v < 2)
        ();
    ]
  in
  let mutex_rows =
    let ids = [ 7; 13 ] and inputs = [ (); () ] in
    let wedged plan =
      CrashMutex.wedges_solo ~seed:3 ~prefix_steps:200 ~ids ~inputs ~m:3
        ~proc:0 plan
    in
    let with_crash = wedged [ Fault.Crash_in_critical { proc = 1 } ] in
    let without = wedged [] in
    [
      [
        "Fig 1 mutex (m=3), peer crashes in CS";
        "1";
        "1";
        (if with_crash then "p0 wedged (EXPECTED: Thm 6.2 covering)"
         else "p0 progressed (UNEXPECTED)");
        "n/a";
      ];
      [
        "Fig 1 mutex (m=3), no crash";
        "1";
        "0";
        (if without then "p0 wedged (UNEXPECTED)" else "p0 enters its CS");
        "n/a";
      ];
    ]
  in
  let multicore_rows =
    (* crash-stop one domain out of three mid-run: survivors decide *)
    let crash_row =
      let n = 3 in
      let m = (2 * n) - 1 in
      let rng = Rng.create 77 in
      let inputs = Array.init n (fun i -> (i + 1) * 100) in
      let cfg : PCons.config =
        {
          ids = Array.init n (fun i -> (i + 1) * 7);
          inputs;
          namings = Array.init n (fun _ -> Naming.random rng m);
          seed = 77;
        }
      in
      let faults =
        { PCons.crash_at = [| Some 5; None; None |]; pause_prob = 0.001 }
      in
      let o = PCons.run_decide ~watchdog_s:5.0 ~faults ~step_budget:500_000 cfg in
      let survivors_decided =
        Array.to_list o.results
        |> List.filteri (fun i _ -> i > 0)
        |> List.for_all (fun r -> r.PCons.output <> None)
      in
      let agree =
        match
          Array.to_list o.results |> List.filter_map (fun r -> r.PCons.output)
        with
        | [] -> true
        | v :: rest ->
          List.for_all (( = ) v) rest && Array.exists (( = ) v) inputs
      in
      [
        "Fig 2 consensus, 3 domains, p0 crash-stopped at step 5";
        "1";
        "1";
        (if o.PCons.results.(0).crashed && survivors_decided then
           "crash recorded; both survivors decided"
         else "incomplete");
        (if agree then "ok" else "VIOLATED");
      ]
    in
    (* hang one domain inside a protocol step: the watchdog must hand
       back a partial outcome instead of blocking in Domain.join *)
    let watchdog_row =
      Atomic.set e19_release false;
      let cfg : PHang.config =
        {
          ids = [| 1; 2; 3 |];
          inputs = [| (); (); () |];
          namings = Array.init 3 (fun _ -> Naming.identity 1);
          seed = 1;
        }
      in
      let o = PHang.run_decide ~watchdog_s:0.2 ~max_stall_retries:0 ~step_budget:1_000 cfg in
      Atomic.set e19_release true;
      Unix.sleepf 0.05;
      let leaked =
        Array.to_list o.results |> List.filter (fun r -> r.PHang.timed_out)
      in
      let peers_done =
        o.PHang.results.(1).output <> None && o.PHang.results.(2).output <> None
      in
      [
        "hang protocol, 3 domains, p0 stuck inside a step";
        "1";
        "1";
        (if o.PHang.watchdog_fired && List.length leaked = 1 && peers_done
         then "watchdog fired; partial outcome, peers decided"
         else "watchdog FAILED to isolate the hang");
        "n/a";
      ]
    in
    [ crash_row; watchdog_row ]
  in
  [
    Table.make ~id:"E19a"
      ~title:
        "Crash-tolerance matrix: every single-crash plan (each process, \
         each crash point up to a bound) vs the crash-aware checker"
      ~header:
        [ "instance"; "plans"; "fired"; "survivor progress"; "safety" ]
      ~notes:
        [
          "Crashed processes stop forever but their registers keep the \
           last-written values. Obstruction-free decision tasks owe the \
           survivors nothing less than a decision (crash-obstruction-\
           freedom); deadlock-free mutex owes them nothing, and indeed a \
           crash inside the critical section freezes a covering write \
           that wedges the survivor exactly as in Theorem 6.2.";
          "A plan fails to fire when its victim decides before reaching \
           the crash point; those runs double as no-fault controls.";
        ]
      (matrix @ mutex_rows);
    Table.make ~id:"E19b"
      ~title:
        "Multicore robustness: injected crash-stops and a watchdog for \
         domains that hang inside a step"
      ~header:[ "workload"; "runs"; "faults"; "outcome"; "safety" ]
      ~notes:
        [
          "The watchdog polls per-domain heartbeats; a stalled domain is \
           abandoned (its slot synthesised with timed_out set) so the run \
           returns a partial outcome instead of blocking in Domain.join \
           forever.";
        ]
      multicore_rows;
  ]

(* ------------------------------------------------------------------ *)
(* E20: symmetry-quotient reduction factors                            *)
(* ------------------------------------------------------------------ *)

(* Explores each configuration twice — full graph and symmetry quotient
   (identity namings, so the whole process group is admissible) — and
   reports the measured reduction factor. The orbit-sum column is a live
   soundness check: the stored orbit sizes must sum to exactly the full
   reachable count whenever both explorations complete. Verdict equality
   between the two graphs is asserted, per protocol, in
   test/test_canon.ml. *)
module QuotRed (P : Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)

  let row ~label ~n ~m ?max_states (cfg : E.config) =
    let _, sf = E.explore_with_stats ?max_states cfg in
    let _, sr =
      E.explore_with_stats ~reduction:Check.Explore.Canon ?max_states cfg
    in
    let open Check.Checker_stats in
    [
      label;
      string_of_int n;
      string_of_int m;
      string_of_int sr.group_order;
      str "%d%s" sf.n_states (if sf.complete then "" else "+");
      str "%d%s" sr.n_states (if sr.complete then "" else "+");
      str "%.2fx" (reduction_factor sr);
      (if sf.complete && sr.complete then
         if sr.orbit_sum = sf.n_states then "exact" else "MISMATCH"
       else "truncated");
    ]
end

module QrMutex = QuotRed (Coord.Amutex.P)
module QrCons = QuotRed (Coord.Consensus.P)
module QrRen = QuotRed (Coord.Renaming.P)
module QrCcp = QuotRed (Coord.Ccp.P)

let e20_symmetry_reduction speed =
  let sym n m : Naming.t array = Array.init n (fun _ -> Naming.identity m) in
  let ids n = Array.init n (fun i -> 7 + i) in
  let units n = Array.make n () in
  let mutex_row ?max_states n m =
    QrMutex.row ~label:"Fig 1 mutex" ~n ~m ?max_states
      { ids = ids n; inputs = units n; namings = sym n m }
  in
  let big =
    match speed with
    | Quick -> []
    | Full ->
      [
        mutex_row 2 4;
        mutex_row 2 5;
        (* the m=5 n=3 full graph blows any sane table budget; the
           truncated rows still show the quotient pulling ahead *)
        mutex_row ~max_states:600_000 3 5;
        QrRen.row ~label:"Fig 3 renaming" ~n:2 ~m:5
          { ids = ids 2; inputs = units 2; namings = sym 2 5 };
      ]
  in
  [
    Table.make ~id:"E20"
      ~title:
        "Symmetry-quotient reduction factors over (n, m): states stored \
         by the canonical explorer vs the full graph"
      ~header:
        [
          "instance";
          "n";
          "m";
          "group";
          "full states";
          "quotient";
          "reduction";
          "orbit sum";
        ]
      ~notes:
        [
          "Identity namings make every input-preserving process \
           permutation admissible (group S_n), the protocols' anonymity \
           in its purest form. Reduction factors sit just below the \
           group order because states fixed by an automorphism have \
           smaller orbits.";
          "\"exact\" means the stored orbit sizes sum to precisely the \
           full graph's reachable-state count — orbits partition the \
           reachable set, so this is a strong end-to-end check of the \
           canonizer. Truncated (budgeted) rows are marked with +.";
        ]
      ([
         mutex_row 2 3;
         mutex_row 3 3;
         QrCons.row ~label:"Fig 2 consensus (equal inputs)" ~n:2 ~m:3
           { ids = ids 2; inputs = [| 42; 42 |]; namings = sym 2 3 };
         QrCcp.row ~label:"CCP" ~n:2 ~m:2
           { ids = ids 2; inputs = units 2; namings = sym 2 2 };
       ]
      @ big);
  ]

(* ------------------------------------------------------------------ *)
(* E21: snapshot overhead and resume fidelity                          *)
(* ------------------------------------------------------------------ *)

(* Three explorations per row: an uninterrupted baseline, the same run
   with periodic checkpointing (the overhead column), and a
   kill-and-resume pair — truncate at half the reachable count so the
   budget flushes a snapshot, resume it, and require the final graph and
   statistics bit-identical to the baseline (the contract DESIGN.md §10
   promises and test/test_snapshot.ml enforces per explorer). *)
module SnapOv (P : Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)

  let row ~label ~n ~m ~snapshot_every (cfg : E.config) =
    let path = Filename.temp_file "coordsnap" ".snap" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    @@ fun () ->
    let gb, sb = E.explore_with_stats cfg in
    let _, ss = E.explore_with_stats ~snapshot_every ~snapshot_to:path cfg in
    (* kill-and-resume: truncate at half, snapshot, resume to the end *)
    let half = max 1 (sb.Check.Checker_stats.n_states / 2) in
    let _ =
      E.explore_with_stats ~max_states:half ~snapshot_every ~snapshot_to:path
        cfg
    in
    let snap_bytes = (Unix.stat path).Unix.st_size in
    let gr, sr = E.explore_with_stats ~resume_from:path cfg in
    let identical =
      gb.E.states = gr.E.states
      && gb.E.succs = gr.E.succs
      && gb.E.orbits = gr.E.orbits
      && Check.Checker_stats.equal_ignoring_time sb sr
    in
    let open Check.Checker_stats in
    let overhead =
      if sb.elapsed_s > 0. then
        (ss.elapsed_s -. sb.elapsed_s) /. sb.elapsed_s *. 100.
      else 0.
    in
    [
      label;
      string_of_int n;
      string_of_int m;
      string_of_int sb.n_states;
      str "%.0f" (states_per_sec sb);
      str "%.0f" (states_per_sec ss);
      str "%+.1f%%" overhead;
      str "%.0f KiB" (float_of_int snap_bytes /. 1024.);
      (if identical then "bit-identical" else "MISMATCH");
    ]
end

module SoMutex = SnapOv (Coord.Amutex.P)
module SoCcp = SnapOv (Coord.Ccp.P)

let e21_snapshot_overhead speed =
  let ids n = Array.init n (fun i -> 7 + i) in
  let units n = Array.make n () in
  let mutex_row ?(snapshot_every = 5_000) n m =
    SoMutex.row ~label:"Fig 1 mutex" ~n ~m ~snapshot_every
      {
        ids = ids n;
        inputs = units n;
        namings = Array.init n (fun _ -> Naming.identity m);
      }
  in
  let big =
    match speed with
    | Quick -> []
    | Full ->
      [
        mutex_row ~snapshot_every:50_000 3 3;
        SoCcp.row ~label:"CCP" ~n:2 ~m:2 ~snapshot_every:5_000
          {
            ids = ids 2;
            inputs = units 2;
            namings = Array.init 2 (fun _ -> Naming.identity 2);
          };
      ]
  in
  [
    Table.make ~id:"E21"
      ~title:
        "Checkpoint/resume: periodic-snapshot overhead and \
         kill-at-half-resume fidelity (sequential explorer)"
      ~header:
        [
          "instance";
          "n";
          "m";
          "states";
          "base st/s";
          "snap st/s";
          "overhead";
          "snap size";
          "resume";
        ]
      ~notes:
        [
          "Overhead compares one timed run each way, so small \
           configurations are timing-noise; the m=5 and n=3 rows are \
           the meaningful ones. Snapshots are written at generation \
           boundaries roughly every `snapshot-every` newly interned \
           states (5k here, 50k for the n=3 row; the CLI default is \
           500k, making the relative cost far smaller on real runs).";
          "\"snap size\" is the on-disk checkpoint flushed when a \
           half-budget run truncates. \"bit-identical\" asserts the \
           resumed run's graph (states, successors, orbits) and checker \
           statistics equal the uninterrupted baseline's — the E18-style \
           oracle check, applied to resumption.";
        ]
      ([ mutex_row 2 3; mutex_row 2 4; mutex_row 2 5 ] @ big);
  ]

(* ------------------------------------------------------------------ *)
(* E22: chaos campaign — seeded faults across the explorer matrix     *)
(* ------------------------------------------------------------------ *)

(* Each row arms a deterministic fault plan against one cell of the
   (explorer x storage) matrix and reports what the stack did about it:
   every fault must either be absorbed to a bit-identical
   result (re-mapped chunks, respawns, recovery retries) or surface as an
   honestly tagged degradation — never a hang, a crash, or a silently
   wrong count. `make chaos-soak-smoke` drives the same matrix through
   the coordctl surface with randomized plans. *)
module ChaosRow (P : Protocol.PROTOCOL) = struct
  module E = Check.Explore.Make (P)

  let with_plan plan f =
    Resilience.arm plan;
    Fun.protect ~finally:Resilience.disarm f

  let verdict ~oracle:(og, os) (g, s) =
    let open Check.Checker_stats in
    if
      g.E.states = og.E.states
      && g.E.succs = og.E.succs
      && g.E.orbits = og.E.orbits
      && equal_ignoring_time os s
    then "bit-identical"
    else if not s.complete then "degraded: " ^ stop_reason_tag s.stop
    else "MISMATCH"

  (* the parallel explorer under kills and stalls aimed at its workers;
     the oracle is the same explorer fault-free (bit-identical to the
     sequential explorer's graph by the parity contract, but carrying
     the parallel run's domain count) *)
  let parallel_row ~label ~domains (cfg : E.config) =
    let oracle = E.explore_with_stats ~domains ~par_threshold:0 cfg in
    let plan =
      {
        Resilience.seed = 9;
        faults =
          [
            Resilience.Kill_domain { domain = 1; after_ticks = 4 };
            Resilience.Stall_domain
              { domain = 2; after_ticks = 2; for_s = 0.002 };
            Resilience.Kill_domain { domain = 2; after_ticks = 11 };
          ];
      }
    in
    with_plan plan (fun () ->
        let g, s = E.explore_with_stats ~domains ~par_threshold:0 cfg in
        [
          label;
          Format.asprintf "%a" Resilience.pp_plan plan;
          string_of_int (Resilience.fired ());
          string_of_int s.Check.Checker_stats.restarts;
          string_of_int s.Check.Checker_stats.recoveries;
          verdict ~oracle (g, s);
        ])

  (* the sequential explorer pushed through snapshot-and-storage faults
     by with_recovery *)
  let recovery_row ~label (cfg : E.config) =
    let oracle = E.explore_with_stats cfg in
    let snap = Filename.temp_file "coorde22" ".snap" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    @@ fun () ->
    let plan =
      {
        Resilience.seed = 9;
        faults =
          [
            Resilience.Alloc_fail { after_boundaries = 3 };
            Resilience.Io_error { nth_io = 4 };
            Resilience.Torn_write { nth_write = 6; keep = 0.5 };
          ];
      }
    in
    with_plan plan (fun () ->
        let g, s =
          E.with_recovery ~snapshot_to:snap (fun ~resume_from ~snapshot_to ->
              E.explore_with_stats ~snapshot_every:1 ~snapshot_to ?resume_from
                ~salvage:true cfg)
        in
        [
          label;
          Format.asprintf "%a" Resilience.pp_plan plan;
          string_of_int (Resilience.fired ());
          string_of_int s.Check.Checker_stats.restarts;
          string_of_int s.Check.Checker_stats.recoveries;
          verdict ~oracle
            (g, { s with Check.Checker_stats.recoveries = 0 });
        ])

  (* the external-memory explorer against a byte quota: an honest
     degradation, then an exact quota-free resume *)
  let quota_row ~label (cfg : E.config) =
    let _, os = E.explore_with_stats cfg in
    let dir = Filename.temp_file "coorde22dv" ".d" in
    Sys.remove dir;
    let snap = Filename.temp_file "coorde22dv" ".snap" in
    let remove_all () =
      (try Sys.remove snap with Sys_error _ -> ());
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end
    in
    Fun.protect ~finally:remove_all @@ fun () ->
    let t =
      E.explore_external ~hot_cap:8 ~disk_quota_bytes:16 ~snapshot_to:snap
        ~dir cfg
    in
    let r = E.explore_external ~resume_from:snap ~hot_cap:8 ~dir cfg in
    let open Check.Checker_stats in
    [
      label;
      "disk quota 16 B (no faults)";
      "0";
      "0";
      "0";
      str "degraded: %s; resume %s" (stop_reason_tag t.stop)
        (if equal_ignoring_time os r && r.complete then "bit-identical"
         else "MISMATCH");
    ]
end

module ChMutex = ChaosRow (Coord.Amutex.P)

let e22_chaos_matrix _speed =
  let cfg : ChMutex.E.config =
    {
      ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = Array.init 2 (fun _ -> Naming.identity 3);
    }
  in
  [
    Table.make ~id:"E22"
      ~title:
        "Chaos campaign: seeded infrastructure faults across the \
         (explorer x storage) matrix — absorbed bit-identically or \
         honestly degraded (Fig 1 mutex, n=2, m=3)"
      ~header:[ "cell"; "fault plan"; "fired"; "restarts"; "recoveries"; "outcome" ]
      ~notes:
        [
          "\"fired\" counts plan faults that actually matured during the \
           cell. A killed or stalled worker's chunk of the frontier is \
           mapped again by domain 0, and a dead worker is respawned at \
           the next wide generation (\"restarts\"; zero when the run \
           ends first). Faults that take down the whole attempt (domain 0 \
           kill, allocation failure, I/O error, torn checkpoint) are \
           retried from the newest salvageable snapshot by with_recovery \
           (recoveries > 0). \
           A disk-visited byte quota is not a fault but a resource limit: \
           the run stops BEFORE the spill that would breach it, tags the \
           stop disk_full, and a quota-free resume completes exactly.";
          "`make chaos-soak-smoke` replays the same matrix through the \
           coordctl CLI with seed-randomized plans (CHAOS_SEED=N).";
        ]
      [
        ChMutex.parallel_row ~label:"par, 3 domains" ~domains:3 cfg;
        ChMutex.recovery_row ~label:"seq + with_recovery" cfg;
        ChMutex.quota_row ~label:"disk-visited + quota" cfg;
      ];
  ]

let e23_serve_sweep _speed =
  let sw : Serve.Sweep.spec =
    {
      Serve.Sweep.name = "e23";
      kind = Serve.Spec.Check;
      protos = [ Serve.Spec.Mutex ];
      ns = [ 2 ];
      ms = Some [ 3; 4 ];
      reductions = [ Check.Explore.Full; Check.Explore.Canon ];
      engines = [ Serve.Spec.Seq ];
      fault_seeds = [ None ];
      seeds = [ 1 ];
      strategies = [ Check.Hunt.Bursts ];
      max_states = None;
      attempts = None;
      steps = None;
      deadline_s = None;
      expect_default = Some "pass";
      expect_overrides = [ ("mutex-n2-m4", "violation") ];
    }
  in
  let cache = Serve.Cache.create () in
  (* a small quantum so the slices column shows real preemption/resume
     round-trips, not one-shot runs *)
  let quantum = 4_000 in
  let first = Serve.Sweep.run ~cache ~quantum sw in
  let repeat = Serve.Sweep.run ~cache ~quantum sw in
  [
    Table.make ~id:"E23"
      ~title:
        "Job-queue service: declarative sweep with preemption quanta, a \
         fingerprint-keyed verdict cache and regression gates (Fig 1 \
         mutex, n=2)"
      ~header:Serve.Sweep.kpi_header
      ~notes:
        (Serve.Sweep.aggregate_lines first
        @ [
            "Gates: pass expected for m=3, violation for even m=4 (the \
             Thm 3.1 gcd obstruction); a slice explores at most the \
             preemption quantum (4000 states) before yielding at a \
             snapshot boundary, so verdicts and per-config stats are \
             bit-identical to uninterrupted runs (DESIGN.md §15).";
            str
              "Repeat sweep against the same cache: %d/%d cell(s) served \
               from the verdict cache, %d state(s) freshly explored \
               (%.2fs vs %.2fs wall)."
              repeat.Serve.Sweep.cached_cells repeat.Serve.Sweep.cells
              repeat.Serve.Sweep.total_explored repeat.Serve.Sweep.elapsed_s
              first.Serve.Sweep.elapsed_s;
          ])
      (Serve.Sweep.kpi_rows first);
  ]

let all speed =
  List.concat
    [
      e1_mutex_model_check speed;
      e2_even_m speed;
      e3_gcd_grid speed;
      e4_consensus speed;
      e5_election speed;
      e6_renaming speed;
      e7_covering_mutex speed;
      e8_covering_consensus speed;
      e9_covering_renaming speed;
      e10_named_baselines speed;
      e11_ccp speed;
      e12_starvation speed;
      e13_comparisons speed;
      e14_multicore speed;
      e15_property1 speed;
      e16_hunting speed;
      e17_fairness speed;
      e18_parallel_checker speed;
      e19_crash_tolerance speed;
      e20_symmetry_reduction speed;
      e21_snapshot_overhead speed;
      e22_chaos_matrix speed;
      e23_serve_sweep speed;
    ]

let by_id id =
  match String.lowercase_ascii id with
  | "e1" -> Some e1_mutex_model_check
  | "e2" -> Some e2_even_m
  | "e3" -> Some e3_gcd_grid
  | "e4" -> Some e4_consensus
  | "e5" -> Some e5_election
  | "e6" -> Some e6_renaming
  | "e7" -> Some e7_covering_mutex
  | "e8" -> Some e8_covering_consensus
  | "e9" -> Some e9_covering_renaming
  | "e10" -> Some e10_named_baselines
  | "e11" -> Some e11_ccp
  | "e12" -> Some e12_starvation
  | "e13" -> Some e13_comparisons
  | "e14" -> Some e14_multicore
  | "e15" -> Some e15_property1
  | "e16" -> Some e16_hunting
  | "e17" -> Some e17_fairness
  | "e18" -> Some e18_parallel_checker
  | "e19" -> Some e19_crash_tolerance
  | "e20" -> Some e20_symmetry_reduction
  | "e21" -> Some e21_snapshot_overhead
  | "e22" -> Some e22_chaos_matrix
  | "e23" -> Some e23_serve_sweep
  | _ -> None
