open Anonmem
open Check

(* Cross-validation of the frontier-parallel explorer against the
   sequential reference oracle. The parallel explorer promises a
   bit-identical graph — same state numbering, same transition lists, same
   completeness flag — for any domain count, so every check here is
   exact equality, not just "same verdicts". *)

let domains_under_test = [ 1; 2; 3 ]

module Parity (P : Protocol.PROTOCOL) = struct
  module E = Explore.Make (P)

  (* Compares the sequential oracle against [explore_with_stats] at
     several domain counts, inline and wide, and sanity-checks the
     reported statistics against the graph. *)
  let run ?max_states (cfg : E.config) =
    let seq = E.explore ?max_states cfg in
    let n_seq = Array.length seq.states in
    List.iter
      (fun d ->
        (* threshold 0 makes every generation wide from depth 0; the
           default threshold exercises the sequential warm-up *)
        List.iter
          (fun threshold ->
            let par, stats =
              E.explore_with_stats ?max_states ~domains:d
                ?par_threshold:threshold cfg
            in
            let tag what =
              Printf.sprintf "%s (%d domains, threshold %s): %s" P.name d
                (match threshold with Some t -> string_of_int t | None -> "-")
                what
            in
            Alcotest.(check bool)
              (tag "same states")
              true
              (seq.states = par.states);
            Alcotest.(check bool)
              (tag "same transitions")
              true
              (seq.succs = par.succs);
            Alcotest.(check bool)
              (tag "same completeness")
              true
              (seq.complete = par.complete);
            Alcotest.(check int) (tag "stats domains") d
              stats.Checker_stats.domains;
            Alcotest.(check int) (tag "stats states") n_seq
              stats.Checker_stats.n_states;
            Alcotest.(check int)
              (tag "no restarts without faults")
              0 stats.Checker_stats.restarts;
            (match (threshold, d > 1, n_seq > 1) with
            | Some 0, true, true ->
              (* every generation from depth 0 on was a wide one *)
              Alcotest.(check bool)
                (tag "cutover recorded")
                true
                (stats.Checker_stats.cutover = Some 0)
            | _ -> ());
            (* dedup accounting: on a complete run every candidate either
               became a state or deduplicated; truncation drops candidates
               on the floor, so only the inequality survives *)
            if stats.Checker_stats.complete then
              Alcotest.(check int)
                (tag "candidates = states + dedup_hits")
                (stats.Checker_stats.n_states + stats.Checker_stats.dedup_hits)
                stats.Checker_stats.candidates
            else
              Alcotest.(check bool)
                (tag "candidates >= states + dedup_hits")
                true
                (stats.Checker_stats.candidates
                >= stats.Checker_stats.n_states + stats.Checker_stats.dedup_hits))
          [ None; Some 0 ])
      domains_under_test;
    let ws, _ = E.explore_with_stats ?max_states cfg in
    Alcotest.(check bool)
      (P.name ^ ": with_stats parity")
      true
      (seq.states = ws.states && seq.succs = ws.succs
     && seq.complete = ws.complete)
end

(* --- toy protocol (plus budget truncation, where ids must still align) --- *)

module PToy = Parity (Test_runtime.Toy)

let toy_cfg () = PToy.E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ()

let test_toy () = PToy.run (toy_cfg ())

let test_toy_truncated () =
  (* the budget must cut the parallel id assignment at the exact same
     candidate as the sequential scan *)
  List.iter (fun b -> PToy.run ~max_states:b (toy_cfg ())) [ 1; 5; 17 ]

(* --- the paper's protocols --- *)

module PMutex = Parity (Coord.Amutex.P)

let test_amutex () =
  List.iter
    (fun nam ->
      PMutex.run
        {
          ids = [| 7; 13 |];
          inputs = [| (); () |];
          namings = [| Naming.identity 3; nam |];
        })
    [ Naming.identity 3; Naming.rotation 3 1 ]

module PCons = Parity (Coord.Consensus.P)

let test_consensus () =
  PCons.run
    {
      ids = [| 7; 13 |];
      inputs = [| 100; 200 |];
      namings = [| Naming.identity 3; Naming.rotation 3 2 |];
    }

module PRen = Parity (Coord.Renaming.P)

let test_renaming () =
  PRen.run
    {
      ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 3; Naming.rotation 3 1 |];
    }

module PCcp = Parity (Coord.Ccp.P)

let test_ccp () =
  PCcp.run
    {
      ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 2; Naming.rotation 2 1 |];
    }

(* --- known-name baselines --- *)

module PPet = Parity (Baseline.Peterson.P)

let test_peterson () =
  PPet.run (PPet.E.config ~ids:[ 1; 2 ] ~inputs:[ (); () ] ())

module PBurns = Parity (Baseline.Burns.P)

let test_burns () =
  PBurns.run (PBurns.E.config ~ids:[ 1; 2; 3 ] ~inputs:[ (); (); () ] ())

(* --- engine matrix: sequential vs parallel --------------------------------
   Every generation wide (threshold 0), at a domain count below and above
   the host's cores: chunk claims and the order workers finish in shape
   scheduling, never the result. *)

let matrix_domains = [ 2; 4 ]

module Matrix (P : Protocol.PROTOCOL) = struct
  module E = Explore.Make (P)

  let run ?max_states (cfg : E.config) =
    let seq = E.explore ?max_states cfg in
    List.iter
      (fun domains ->
        let par, stats =
          E.explore_with_stats ?max_states ~domains ~par_threshold:0 cfg
        in
        let tag what = Printf.sprintf "%s [d=%d]: %s" P.name domains what in
        Alcotest.(check bool)
          (tag "same states") true
          (seq.E.states = par.E.states);
        Alcotest.(check bool)
          (tag "same transitions") true
          (seq.E.succs = par.E.succs);
        Alcotest.(check bool)
          (tag "same completeness") true
          (seq.E.complete = par.E.complete);
        if stats.Checker_stats.complete then
          Alcotest.(check int)
            (tag "candidates = states + dedup_hits")
            (stats.Checker_stats.n_states + stats.Checker_stats.dedup_hits)
            stats.Checker_stats.candidates)
      matrix_domains
end

module MToy = Matrix (Test_runtime.Toy)
module MMutex = Matrix (Coord.Amutex.P)

let mutex_cfg =
  {
    MMutex.E.ids = [| 7; 13 |];
    inputs = [| (); () |];
    namings = [| Naming.identity 3; Naming.identity 3 |];
  }

let test_engine_matrix () =
  MToy.run (MToy.E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ());
  MMutex.run mutex_cfg

let test_engine_matrix_truncated () =
  (* the budget must cut the ordered intern at the exact same candidate
     as the sequential scan, at every domain count *)
  List.iter
    (fun b ->
      MToy.run ~max_states:b (MToy.E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ()))
    [ 1; 5; 17 ];
  MMutex.run ~max_states:40 mutex_cfg

(* A worker domain killed by a seeded fault plan mid-campaign: domain 0
   maps its chunk again and respawns it, and the graph is still the
   sequential oracle's, bit for bit. *)
let test_sharded_supervised_kill () =
  let seq = MMutex.E.explore mutex_cfg in
  List.iter
    (fun domains ->
      let plan =
        {
          Resilience.seed = 11;
          faults = [ Resilience.Kill_domain { domain = 1; after_ticks = 40 } ];
        }
      in
      Resilience.arm plan;
      Fun.protect ~finally:Resilience.disarm (fun () ->
          let par, stats =
            MMutex.E.explore_with_stats ~domains ~par_threshold:0 mutex_cfg
          in
          let lbl msg = Printf.sprintf "d%d: %s" domains msg in
          Alcotest.(check bool)
            (lbl "killed worker absorbed: same states")
            true
            (seq.MMutex.E.states = par.MMutex.E.states);
          Alcotest.(check bool)
            (lbl "killed worker absorbed: same transitions")
            true
            (seq.MMutex.E.succs = par.MMutex.E.succs);
          Alcotest.(check bool)
            (lbl "run completed") true stats.Checker_stats.complete))
    [ 2; 4 ]

(* A worker that freezes while holding a chunk, ten times longer than
   domain 0's patience: domain 0 maps that chunk itself, and the run ends
   with the fault-free graph and statistics, raising nothing. *)
let test_stalled_worker () =
  let cfg =
    {
      MMutex.E.ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 5; Naming.rotation 5 1 |];
    }
  in
  let og, os = MMutex.E.explore_with_stats ~domains:2 ~par_threshold:0 cfg in
  let plan =
    {
      Resilience.seed = 12;
      faults =
        [
          Resilience.Stall_domain
            { domain = 1; after_ticks = 20; for_s = 0.5 };
        ];
    }
  in
  Resilience.arm plan;
  Fun.protect ~finally:Resilience.disarm (fun () ->
      let g, s = MMutex.E.explore_with_stats ~domains:2 ~par_threshold:0 cfg in
      Alcotest.(check int) "the stall fired" 1 (Resilience.fired ());
      Alcotest.(check bool) "same states" true
        (og.MMutex.E.states = g.MMutex.E.states);
      Alcotest.(check bool) "same transitions" true
        (og.MMutex.E.succs = g.MMutex.E.succs);
      Alcotest.(check bool) "stats bit-identical (mod clock)" true
        (Checker_stats.equal_ignoring_time os s))

(* A protocol with a bug: [step] raises once a process reaches local 6.
   Whichever domain maps the faulty state, the parallel explorer must
   raise what the sequential one raises, and must not hang. *)
module Faulty = struct
  module Value = Test_runtime.Toy.Value

  type input = unit
  type output = int
  type local = int

  let name = "faulty"
  let default_registers ~n:_ = 2
  let start ~n:_ ~m:_ ~id:_ () = 0

  let step ~n:_ ~m:_ ~id local : (local, Value.t) Protocol.step =
    if local = 6 then failwith "faulty: step at local 6"
    else if local mod 2 = 0 then Write (local mod 4 / 2, id + local, local + 1)
    else Read (1, fun _ -> local + 1)

  let status _ = Protocol.Trying
  let compare_local = Int.compare
  let symmetric = false
  let map_value_ids _ v = v
  let map_local_ids _ l = l
  let pp_local = Format.pp_print_int
  let pp_input ppf () = Format.pp_print_string ppf "()"
  let pp_output = Format.pp_print_int
end

module EFaulty = Explore.Make (Faulty)

let test_step_raises () =
  let cfg = EFaulty.config ~ids:[ 1; 2; 3 ] ~inputs:[ (); (); () ] () in
  let raised f =
    match f () with
    | _ -> "no exception"
    | exception e -> Printexc.to_string e
  in
  let expected = raised (fun () -> ignore (EFaulty.explore cfg)) in
  Alcotest.(check string) "the oracle raises"
    "Failure(\"faulty: step at local 6\")" expected;
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "d=%d raises what explore raises" domains)
        expected
        (raised (fun () ->
             ignore
               (EFaulty.explore_with_stats ~domains ~par_threshold:0 cfg))))
    matrix_domains

(* --- statistics coherence on a complete exploration --- *)

let test_stats_coherent () =
  let g, s = PToy.E.explore_with_stats (toy_cfg ()) in
  let n = Array.length g.states in
  Alcotest.(check int) "states" n s.Checker_stats.n_states;
  Alcotest.(check bool) "complete" true s.Checker_stats.complete;
  Alcotest.(check int) "transitions" s.Checker_stats.n_transitions
    (Array.fold_left (fun acc ts -> acc + List.length ts) 0 g.succs);
  (* every state — the initial one included — was interned off a
     candidate; the rest of the candidates deduplicated away. This is the
     regression test for the old off-by-one where the initial state was
     never counted as a candidate. *)
  Alcotest.(check int) "candidate accounting" (s.Checker_stats.dedup_hits + n)
    s.Checker_stats.candidates;
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 s.Checker_stats.depths in
  Alcotest.(check int) "frontiers partition the states" n
    (sum (fun d -> d.Checker_stats.frontier));
  Alcotest.(check int) "per-depth discoveries" (n - 1)
    (sum (fun d -> d.Checker_stats.discovered));
  Alcotest.(check int) "depth samples" (s.Checker_stats.max_depth + 1)
    (List.length s.Checker_stats.depths);
  Alcotest.(check bool) "throughput positive" true
    (Checker_stats.states_per_sec s > 0.);
  Alcotest.(check bool) "json has fields" true
    (let j = Checker_stats.to_json s in
     String.length j > 0
     &&
     let contains needle =
       let nl = String.length needle and sl = String.length j in
       let rec go i =
         i + nl <= sl && (String.sub j i nl = needle || go (i + 1))
       in
       go 0
     in
     contains "\"states\"" && contains "\"states_per_sec\""
     && contains "\"dedup_rate\"")

let suite =
  [
    Alcotest.test_case "par = seq: toy" `Quick test_toy;
    Alcotest.test_case "par = seq: toy under budget" `Quick test_toy_truncated;
    Alcotest.test_case "par = seq: anonymous mutex" `Quick test_amutex;
    Alcotest.test_case "par = seq: consensus" `Quick test_consensus;
    Alcotest.test_case "par = seq: renaming" `Quick test_renaming;
    Alcotest.test_case "par = seq: ccp" `Quick test_ccp;
    Alcotest.test_case "par = seq: peterson" `Quick test_peterson;
    Alcotest.test_case "par = seq: burns" `Quick test_burns;
    Alcotest.test_case "checker stats are coherent" `Quick test_stats_coherent;
    Alcotest.test_case "engine matrix: sharded = seq" `Quick test_engine_matrix;
    Alcotest.test_case "engine matrix under budget" `Quick
      test_engine_matrix_truncated;
    Alcotest.test_case "sharded + supervise absorbs a seeded kill" `Quick
      test_sharded_supervised_kill;
    Alcotest.test_case "a stalled worker's chunk is mapped again" `Quick
      test_stalled_worker;
    Alcotest.test_case "a raising step surfaces as in explore" `Quick
      test_step_raises;
  ]
