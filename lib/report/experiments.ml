open Anonmem

(* Explorer / runtime / adversary instances for the protocols, variants
   and properties the protocol table (Serve.Protocols) does not hold:
   Fig 1's starvation check and violating-state index (E12, E16), the
   named baselines and the campaigns. *)
module EMutex = Check.Explore.Make (Coord.Amutex.P)
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
(* The verdict path: protocols of the table, judged by the table       *)
(* ------------------------------------------------------------------ *)

type judged = {
  max_states : int;
  violations : (string * int) list;
      (* per verdict label, in the entry's order: how many tuples
         violate it *)
  stats : Check.Checker_stats.t list;  (* per tuple, in order *)
}

(* The runner's explore-and-judge step without slices, cache or
   checkpoints: explore [proto] under each naming tuple with the table's
   ids and inputs ([explore_inputs]: the configuration `coordctl
   explore` builds) and judge each graph with the entry's verdicts, as
   `coordctl check` does. A truncated exploration fails the table. *)
let judge ?(reduction = Check.Explore.Full) ?(explore_inputs = false) proto
    ~n namings =
  let module X = (val Serve.Protocols.find proto) in
  let module E = Check.Explore.Make (X.P) in
  let inputs = if explore_inputs then X.explore_inputs ~n else X.inputs ~n in
  let judged =
    List.map
      (fun namings ->
        let g, st =
          E.explore_with_stats ~reduction
            { E.ids = Serve.Protocols.ids ~n; inputs; namings }
        in
        if not g.E.complete then
          failwith
            (str "%s: exploration truncated at %d states" X.P.name
               st.Check.Checker_stats.n_states);
        (st, X.verdicts g))
      namings
  in
  let stats = List.map fst judged in
  {
    max_states =
      List.fold_left (fun acc s -> max acc s.Check.Checker_stats.n_states) 0
        stats;
    violations =
      List.map
        (fun (label, _) ->
          ( label,
            List.length
              (List.filter (fun (_, vs) -> not (List.assoc label vs)) judged)
          ))
        (snd (List.hd judged));
    stats;
  }

let verdict_cells j =
  let tuples = List.length j.stats in
  List.map
    (fun (_, k) -> if k = 0 then "ok" else str "VIOLATED (%d/%d)" k tuples)
    j.violations

(* One row per [(lead, namings, tail)] case: the lead cells, the number
   of naming tuples, the largest state count, one cell per verdict label
   and the tail cells. Returns the verdict labels, which head the verdict
   columns, and the rows. *)
let judged_rows proto ~n cases =
  let rows =
    List.map
      (fun (lead, namings, tail) ->
        let j = judge proto ~n namings in
        ( List.map fst j.violations,
          lead
          @ [ string_of_int (List.length namings); string_of_int j.max_states ]
          @ verdict_cells j @ tail ))
      cases
  in
  (fst (List.hd rows), List.map snd rows)

(* all m! relative namings of a two-process instance, process 0 fixed *)
let all_namings m = Serve.Protocols.namings_under_test ~n:2 ~m

(* ------------------------------------------------------------------ *)
(* E1: Figure 1 is a correct two-process mutex for odd m               *)
(* ------------------------------------------------------------------ *)

let e1_mutex_model_check () =
  (* at m=5: the identity, the four rotations and two seeded namings *)
  let m5 =
    Naming.identity 5
    :: List.init 4 (fun d -> Naming.rotation 5 (d + 1))
    @ [ Naming.random (Rng.create 1) 5; Naming.random (Rng.create 2) 5 ]
  in
  let labels, rows =
    judged_rows Serve.Spec.Mutex ~n:2
      [
        ([ "3" ], all_namings 3, [ "safe + deadlock-free" ]);
        ( [ "5" ],
          List.map (fun nam -> [| Naming.identity 5; nam |]) m5,
          [ "safe + deadlock-free" ] );
      ]
  in
  [
    Table.make ~id:"E1"
      ~title:
        "Fig 1 mutex, n=2, odd m: exhaustive model check over relative \
         namings (Thm 3.1-3.3)"
      ~header:([ "m"; "namings"; "max states" ] @ labels @ [ "paper" ])
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

let e2_even_m () =
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
        (* both labels: mutual exclusion holds, deadlock freedom fails *)
        let exhaustive =
          if m <= 4 then
            let j =
              judge Serve.Spec.Mutex ~n:2
                [ [| Naming.identity m; Naming.rotation m (m / 2) |] ]
            in
            String.concat ", "
              (List.map2
                 (fun (label, _) cell -> label ^ " " ^ cell)
                 j.violations (verdict_cells j))
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

let e3_gcd_grid () =
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

(* E4a, E5a, E6a: the n=2, m=3 instance under all six relative namings *)
let task_model_check ~id ~title proto =
  let labels, rows = judged_rows proto ~n:2 [ ([], all_namings 3, []) ] in
  Table.make ~id ~title ~header:([ "namings"; "max states" ] @ labels) rows

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

let e4_consensus () =
  let mc =
    task_model_check ~id:"E4a"
      ~title:"Fig 2 consensus, n=2 (m=3): exhaustive model check (Thm 4.1/4.2)"
      Serve.Spec.Consensus
  in
  let runs = 100 in
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

let e5_election () =
  let mc =
    task_model_check ~id:"E5a"
      ~title:
        "Election via consensus-on-ids, n=2: exhaustive model check (§4 note)"
      Serve.Spec.Election
  in
  let runs = 100 in
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

let e6_renaming () =
  let mc =
    task_model_check ~id:"E6a"
      ~title:
        "Fig 3 adaptive perfect renaming, n=2: exhaustive model check \
         (Thm 5.1-5.3)"
      Serve.Spec.Renaming
  in
  let runs = 60 in
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

let e7_covering_mutex () =
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
      [ 3; 5 ]
  in
  [
    Table.make ~id:"E7"
      ~title:
        "Covering adversary vs Fig 1 (unknown number of processes): two \
         processes end up in the CS (Thm 6.2)"
      ~header:[ "m"; "|write(y,q)|"; "victim q"; "recruit"; "z-extension" ]
      rows;
  ]

(* One E8/E9 row: the covering construction against [P] designed for
   [n] processes over [m] registers, as the victim's and the recruit's
   decisions. *)
let covering_row (type i) (module P : Protocol.PROTOCOL with type input = i)
    ~(q_input : i) ~recruit_input ~verdict (label, n, m) =
  let module C = Wrap.Fix_n (P) (struct let n = n end) in
  let module Cov = Lowerbound.Covering.Make (C) in
  match Cov.construct ~m ~q_input ~recruit_input () with
  | Error e -> [ label; "-"; "-"; str "FAILED: %s" e ]
  | Ok o ->
    [
      label;
      Format.asprintf "%a" Cov.pp_success o.q_success;
      Format.asprintf "%a" Cov.pp_success o.p_success;
      verdict;
    ]

(* the two settings of Thms 6.3 and 6.5, as covering_row cases: more
   processes than the design's n, and n-1 registers *)
let unknown_n = ("unknown n (design n=2, m=3)", 2, 3)
let space_bound n = (str "n=%d, m=n-1=%d" n (n - 1), n, n - 1)

let e8_covering_consensus () =
  [
    Table.make ~id:"E8"
      ~title:
        "Covering adversary vs Fig 2 consensus: unknown n, and n-1 \
         registers (Thm 6.3)"
      ~header:[ "setting"; "victim q decided"; "recruit decided"; "verdict" ]
      (List.map
         (covering_row
            (module Coord.Consensus.P)
            ~q_input:100
            ~recruit_input:(fun _ -> 200)
            ~verdict:"agreement violated")
         (unknown_n :: List.map space_bound [ 2; 3; 4 ]));
  ]

let e9_covering_renaming () =
  [
    Table.make ~id:"E9"
      ~title:
        "Covering adversary vs Fig 3 renaming: unknown n, and n-1 registers \
         (Thm 6.5)"
      ~header:[ "setting"; "victim q decided"; "recruit decided"; "verdict" ]
      (List.map
         (covering_row
            (module Coord.Renaming.P)
            ~q_input:()
            ~recruit_input:(fun _ -> ())
            ~verdict:"name 1 duplicated")
         (unknown_n :: List.map space_bound [ 3; 4 ]));
  ]

(* ------------------------------------------------------------------ *)
(* E10: what prior agreement buys                                      *)
(* ------------------------------------------------------------------ *)

let e10_named_baselines () =
  let mutex_row name explore_flat =
    let f = explore_flat () in
    [
      name;
      ok_or "VIOLATED" (Check.Mutex_props.mutual_exclusion f);
      ok_or "VIOLATED" (Check.Mutex_props.deadlock_freedom f);
    ]
  in
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
         [ 2; 3 ]
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

let e11_ccp () =
  let runs = 300 in
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

let e12_starvation () =
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

module SymCmp = Lowerbound.Symmetry.Make (Coord.Cmp_mutex.P)

let e13_comparisons () =
  let lock_step m =
    if m mod 2 = 0 then
      let v, _ =
        SymCmp.run ~max_steps:5_000 ~ids:[ 7; 13 ] ~inputs:[ (); () ] ~m ~d:2
          ()
      in
      Format.asprintf "%a" Lowerbound.Symmetry.pp_verdict v
    else "n/a (odd m)"
  in
  let labels, rows =
    judged_rows Serve.Spec.Cmp_mutex ~n:2
      (List.map
         (fun m -> ([ string_of_int m ], all_namings m, [ lock_step m ]))
         [ 2; 3; 4 ])
  in
  [
    Table.make ~id:"E13"
      ~title:
        "Symmetry with arbitrary comparisons (§2's second variant): a \
         2-process mutex for EVERY m >= 2 (extension beyond the paper)"
      ~header:
        ([ "m"; "namings"; "max states" ] @ labels @ [ "lock-step attack" ])
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

let e15_property1 () =
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

let e16_hunting () =
  let attempts = 400 in
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

let e17_fairness () =
  let steps = 60_000 in
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

let e19_crash_tolerance () =
  let max_step = 12 in
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
  ]

(* ------------------------------------------------------------------ *)
(* E20: symmetry-quotient reduction factors                            *)
(* ------------------------------------------------------------------ *)

(* Explores each configuration twice — full graph and symmetry quotient
   — as `coordctl explore` builds it (identity namings, so the whole
   process group is admissible) and reports the measured reduction
   factor. The orbit-sum column is a live soundness check: the stored
   orbit sizes must sum to exactly the full reachable count; the
   verdicts column compares the entry's verdicts on the two graphs. *)
let e20_symmetry_reduction () =
  let row label proto ~n ~m =
    let judged reduction =
      judge ~reduction ~explore_inputs:true proto ~n
        [ Array.init n (fun _ -> Naming.identity m) ]
    in
    let full = judged Check.Explore.Full
    and quot = judged Check.Explore.Canon in
    let sf = List.hd full.stats and sr = List.hd quot.stats in
    let open Check.Checker_stats in
    [
      label;
      string_of_int n;
      string_of_int m;
      string_of_int sr.group_order;
      string_of_int sf.n_states;
      string_of_int sr.n_states;
      str "%.2fx" (reduction_factor sr);
      (if sr.orbit_sum = sf.n_states then "exact" else "MISMATCH");
      (if quot.violations = full.violations then "same" else "DIFFER");
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
          "verdicts";
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
           canonizer. \"same\" means the protocol's judged properties \
           (those of `coordctl check`) get the same verdicts on both \
           graphs.";
        ]
      [
        row "Fig 1 mutex" Serve.Spec.Mutex ~n:2 ~m:3;
        row "Fig 1 mutex" Serve.Spec.Mutex ~n:3 ~m:3;
        row "Fig 2 consensus (equal inputs)" Serve.Spec.Consensus ~n:2 ~m:3;
        row "CCP" Serve.Spec.Ccp ~n:2 ~m:2;
      ];
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

let e22_chaos_matrix () =
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

let e23_serve_sweep () =
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

let registry =
  [
    ("E1", e1_mutex_model_check);
    ("E2", e2_even_m);
    ("E3", e3_gcd_grid);
    ("E4", e4_consensus);
    ("E5", e5_election);
    ("E6", e6_renaming);
    ("E7", e7_covering_mutex);
    ("E8", e8_covering_consensus);
    ("E9", e9_covering_renaming);
    ("E10", e10_named_baselines);
    ("E11", e11_ccp);
    ("E12", e12_starvation);
    ("E13", e13_comparisons);
    ("E15", e15_property1);
    ("E16", e16_hunting);
    ("E17", e17_fairness);
    ("E19", e19_crash_tolerance);
    ("E20", e20_symmetry_reduction);
    ("E22", e22_chaos_matrix);
    ("E23", e23_serve_sweep);
  ]

let all () = List.concat_map (fun (_, run) -> run ()) registry
let by_id id = List.assoc_opt (String.uppercase_ascii id) registry
