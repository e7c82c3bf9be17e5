(* Benchmark harness.

   Part 1 regenerates the experiment tables E1-E11 (the paper has no
   measurement tables of its own - every theorem is an experiment here; see
   EXPERIMENTS.md). Part 2 runs the bechamel micro-benchmarks B1-B5 that
   quantify the cost of coordinating *without* prior agreement against the
   named-register baselines:

     B1  solo consensus decision           anonymous Fig 2  vs named commit-adopt
     B2  uncontended mutex session         anonymous Fig 1  vs Peterson / Burns
     B3  renaming: all n acquire names     anonymous Fig 3  vs named chain
     B4  model-checker exploration rate    (states visited per second)
     B5  choice coordination, full run     randomized CCP vs contention

   Expected shape: the anonymous algorithms pay Theta(m) scans per write
   with m = 2n-1, so named baselines win by a factor that grows with n and
   there is no crossover - which is exactly the paper's point about what
   prior agreement buys. *)

open Anonmem
open Bechamel
open Toolkit

let str = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* benchmark bodies                                                    *)
(* ------------------------------------------------------------------ *)

module RCons = Runtime.Make (Coord.Consensus.P)
module RCa = Runtime.Make (Baseline.Ca_consensus.P)
module RMutex = Runtime.Make (Coord.Amutex.P)
module RPet = Runtime.Make (Baseline.Peterson.P)
module RBurns = Runtime.Make (Baseline.Burns.P)
module RFast = Runtime.Make (Baseline.Fast_mutex.P)
module RRen = Runtime.Make (Coord.Renaming.P)
module RChain = Runtime.Make (Baseline.Chain_renaming.P)
module RCcp = Runtime.Make (Coord.Ccp.P)
module EMutex = Check.Explore.Make (Coord.Amutex.P)

let consensus_solo n () =
  let m = (2 * n) - 1 in
  let rt =
    RCons.create
      (RCons.simple_config ~m
         ~ids:(List.init n (fun i -> i + 1))
         ~inputs:(List.init n (fun i -> (i + 1) * 10))
         ())
  in
  let reason = RCons.run rt (Schedule.solo 0) ~max_steps:(4 * m * m) in
  assert (reason <> RCons.Step_limit)

let ca_solo n () =
  let m = Baseline.Ca_consensus.P.registers_for ~n ~rounds:4 in
  let rt =
    RCa.create
      (RCa.simple_config ~m
         ~ids:(List.init n (fun i -> i + 1))
         ~inputs:(List.init n (fun i -> (i + 1) * 10))
         ())
  in
  let reason = RCa.run rt (Schedule.solo 0) ~max_steps:(20 * m) in
  assert (reason <> RCa.Step_limit)

(* One uncontended mutex session: enter and leave the critical section.
   The runtime is pre-built and checkpoint-restored per iteration, so the
   measurement is the protocol's shared accesses, not allocation. *)
let amutex_session m =
  let rt =
    RMutex.create (RMutex.simple_config ~m ~ids:[ 1 ] ~inputs:[ () ] ())
  in
  let cp = RMutex.checkpoint rt in
  fun () ->
    RMutex.restore rt cp;
    let entered = ref false in
    let reason =
      RMutex.run rt
        ~until:(fun t ->
          if RMutex.status t 0 = Protocol.Critical then entered := true;
          !entered && RMutex.status t 0 = Protocol.Remainder)
        (Schedule.solo 0) ~max_steps:(10 * m)
    in
    assert (reason = RMutex.Condition_met)

let peterson_session =
  let rt =
    RPet.create (RPet.simple_config ~ids:[ 1; 2 ] ~inputs:[ (); () ] ())
  in
  let cp = RPet.checkpoint rt in
  fun () ->
    RPet.restore rt cp;
    let entered = ref false in
    let reason =
      RPet.run rt
        ~until:(fun t ->
          if RPet.status t 0 = Protocol.Critical then entered := true;
          !entered && RPet.status t 0 = Protocol.Remainder)
        (Schedule.solo 0) ~max_steps:100
    in
    assert (reason = RPet.Condition_met)

let burns_session n =
  let ids = List.init n (fun i -> i + 1) in
  let rt =
    RBurns.create
      (RBurns.simple_config ~ids ~inputs:(List.map (fun _ -> ()) ids) ())
  in
  let cp = RBurns.checkpoint rt in
  fun () ->
    RBurns.restore rt cp;
    let entered = ref false in
    let reason =
      RBurns.run rt
        ~until:(fun t ->
          if RBurns.status t 0 = Protocol.Critical then entered := true;
          !entered && RBurns.status t 0 = Protocol.Remainder)
        (Schedule.solo 0) ~max_steps:(20 * n)
    in
    assert (reason = RBurns.Condition_met)

let fast_mutex_session n =
  let ids = List.init n (fun i -> i + 1) in
  let rt =
    RFast.create
      (RFast.simple_config ~ids ~inputs:(List.map (fun _ -> ()) ids) ())
  in
  let cp = RFast.checkpoint rt in
  fun () ->
    RFast.restore rt cp;
    let entered = ref false in
    let reason =
      RFast.run rt
        ~until:(fun t ->
          if RFast.status t 0 = Protocol.Critical then entered := true;
          !entered && RFast.status t 0 = Protocol.Remainder)
        (Schedule.solo 0) ~max_steps:100
    in
    assert (reason = RFast.Condition_met)

let renaming_all n seed0 =
  let counter = ref 0 in
  fun () ->
  let m = (2 * n) - 1 in
  let seed = seed0 + (incr counter; !counter mod 64) in
  let rng = Rng.create seed in
  let cfg : RRen.config =
    {
      ids = Array.init n (fun i -> (i + 1) * 13);
      inputs = Array.make n ();
      namings = Array.init n (fun _ -> Naming.random rng m);
      rng = None;
      record_trace = false;
    }
  in
  let rt = RRen.create cfg in
  let _ = RRen.run rt (Schedule.random rng) ~max_steps:(100 * n) in
  let budget = ref (20 * n) in
  while (not (RRen.all_decided rt)) && !budget > 0 do
    decr budget;
    for i = 0 to n - 1 do
      ignore (RRen.run rt (Schedule.solo i) ~max_steps:(50 * m * m))
    done
  done;
  assert (RRen.all_decided rt)

let chain_all n seed0 =
  let counter = ref 0 in
  fun () ->
  let m = Baseline.Chain_renaming.P.default_registers ~n in
  let seed = seed0 + (incr counter; !counter mod 64) in
  let rng = Rng.create seed in
  let ids = List.init n (fun i -> (i + 1) * 13) in
  let rt =
    RChain.create
      (RChain.simple_config ~m ~ids ~inputs:(List.map (fun _ -> ()) ids) ())
  in
  let _ = RChain.run rt (Schedule.random rng) ~max_steps:(100 * n) in
  let budget = ref (20 * n) in
  while (not (RChain.all_decided rt)) && !budget > 0 do
    decr budget;
    for i = 0 to n - 1 do
      ignore (RChain.run rt (Schedule.solo i) ~max_steps:(100 * m))
    done
  done;
  assert (RChain.all_decided rt)

let explore_m3_cfg =
  {
    EMutex.ids = [| 7; 13 |];
    inputs = [| (); () |];
    namings = [| Naming.identity 3; Naming.rotation 3 1 |];
  }

let explore_m3 () =
  let g = EMutex.explore explore_m3_cfg in
  assert (Array.length g.states > 2000)

let explore_m3_par domains () =
  let g, _ = EMutex.explore_with_stats ~domains explore_m3_cfg in
  assert (Array.length g.states > 2000)

let ccp_full n seed0 =
  let counter = ref 0 in
  fun () ->
  let seed = seed0 + (incr counter; !counter mod 64) in
  let rng = Rng.create seed in
  let cfg : RCcp.config =
    {
      ids = Array.init n (fun i -> (i + 1) * 3);
      inputs = Array.make n ();
      namings = Array.init n (fun _ -> Naming.random rng 2);
      rng = Some (Rng.split rng);
      record_trace = false;
    }
  in
  let rt = RCcp.create cfg in
  ignore (RCcp.run rt (Schedule.random rng) ~max_steps:10_000)

(* ------------------------------------------------------------------ *)
(* bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let tests =
  [
    Test.make_grouped ~name:"B1-consensus-solo"
      (List.concat_map
         (fun n ->
           [
             Test.make
               ~name:(str "fig2-anonymous/n=%d" n)
               (Staged.stage (consensus_solo n));
             Test.make
               ~name:(str "commit-adopt-named/n=%d" n)
               (Staged.stage (ca_solo n));
           ])
         [ 2; 4; 8; 16 ]);
    Test.make_grouped ~name:"B2-mutex-session"
      (List.map
         (fun m ->
           Test.make
             ~name:(str "fig1-anonymous/m=%d" m)
             (Staged.stage (amutex_session m)))
         [ 3; 5; 9 ]
      @ [
          Test.make ~name:"peterson-named/m=3" (Staged.stage peterson_session);
          Test.make ~name:"burns-named/n=2" (Staged.stage (burns_session 2));
          Test.make ~name:"burns-named/n=8" (Staged.stage (burns_session 8));
          Test.make ~name:"fast-named/n=2" (Staged.stage (fast_mutex_session 2));
          Test.make ~name:"fast-named/n=16"
            (Staged.stage (fast_mutex_session 16));
        ]);
    Test.make_grouped ~name:"B3-renaming-all"
      (List.concat_map
         (fun n ->
           [
             Test.make
               ~name:(str "fig3-anonymous/n=%d" n)
               (Staged.stage (renaming_all n (41 * n)));
             Test.make
               ~name:(str "chain-named/n=%d" n)
               (Staged.stage (chain_all n (41 * n)));
           ])
         [ 2; 4; 8 ]);
    Test.make_grouped ~name:"B4-model-check-fig1-m3"
      [
        Test.make ~name:"sequential" (Staged.stage explore_m3);
        Test.make ~name:"parallel/d=2" (Staged.stage (explore_m3_par 2));
      ];
    Test.make_grouped ~name:"B5-ccp-full"
      (List.map
         (fun n ->
           Test.make ~name:(str "randomized/n=%d" n)
             (Staged.stage (ccp_full n (7 * n))))
         [ 2; 4; 8 ]);
  ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw =
    List.map (fun t -> Benchmark.all cfg instances t) tests
  in
  let results =
    List.map
      (fun raw -> Analyze.merge ols instances [ Analyze.all ols Instance.monotonic_clock raw ])
      raw
  in
  results

let print_results results =
  Format.printf "%-40s %14s@." "benchmark" "ns/op";
  List.iter
    (fun tbl ->
      match Hashtbl.find_opt tbl (Measure.label Instance.monotonic_clock) with
      | None -> ()
      | Some inner ->
        let rows =
          Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) inner []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        List.iter
          (fun (name, ols) ->
            let est =
              match Analyze.OLS.estimates ols with
              | Some [ e ] -> str "%14.0f" e
              | _ -> "?"
            in
            Format.printf "%-40s %14s@." name est)
          rows)
    results

(* Checker throughput at a glance; `check_throughput.exe` runs the full
   sweep and records BENCH_checker.json. *)
let checker_stats () =
  Format.printf
    "=== Model-checker throughput (fig1 mutex, m=3; see BENCH_checker.json) \
     ===@.@.";
  let _, seq = EMutex.explore_with_stats explore_m3_cfg in
  Format.printf "%a@.@." Check.Checker_stats.pp seq;
  let _, par =
    EMutex.explore_with_stats
      ~domains:(Domain.recommended_domain_count ())
      explore_m3_cfg
  in
  Format.printf "%a@.@." Check.Checker_stats.pp par

let () =
  Format.printf "=== Experiment tables (quick mode; see EXPERIMENTS.md) ===@.@.";
  Report.Table.render_all Format.std_formatter
    (Report.Experiments.all Report.Experiments.Quick);
  checker_stats ();
  Format.printf "=== Micro-benchmarks (bechamel) ===@.@.";
  print_results (benchmark ())
