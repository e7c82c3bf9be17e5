(* The declarative sweep engine. Pinned here:

   - matrix expansion is deterministic and duplicate-free (dedup on the
     canonical Spec.ident; first occurrence wins; labels unique);
   - a 2x2 smoke sweep (mutex, m in {3,4}, full/canon) reaches the same
     verdicts as the equivalent direct `coordctl check` invocations —
     m = 3 passes (exit 0), m = 4 violates mutual exclusion (exit 1);
     scripts/serve_smoke.sh cross-checks the same matrix against the
     real CLI binary;
   - regression gates: expected violations pass their gates, and a
     seeded gate failure (expecting pass where a violation is known)
     actually fails the sweep;
   - re-running a sweep against the same verdict cache explores zero
     fresh states. *)

let parse_exn s =
  match Serve.Sweep.parse s with
  | Ok spec -> spec
  | Error e -> Alcotest.fail ("sweep spec did not parse: " ^ e)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let smoke_2x2 =
  "name = smoke\n\
   kind = check\n\
   protocols = mutex\n\
   n = 2\n\
   m = 3, 4\n\
   reductions = full, canon\n\
   expect = pass\n\
   expect.mutex-n2-m4 = violation\n"

(* --------------------------- expansion -------------------------------- *)

let test_expand_deterministic_duplicate_free () =
  (* duplicated axis values collapse: the matrix below names 2x3x2 = 12
     raw combinations but only 4 distinct jobs *)
  let spec =
    parse_exn
      "name = dup\n\
       protocols = mutex, mutex\n\
       m = 3, 3, 4\n\
       reductions = full, canon\n"
  in
  let cells = Serve.Sweep.expand spec in
  Alcotest.(check int) "duplicates collapse" 4 (List.length cells);
  let labels = List.map (fun (c : Serve.Sweep.cell) -> c.label) cells in
  Alcotest.(check (list string)) "deterministic order, unique labels"
    [ "mutex-n2-m3-full"; "mutex-n2-m3-canon"; "mutex-n2-m4-full";
      "mutex-n2-m4-canon" ]
    labels;
  let idents =
    List.map (fun (c : Serve.Sweep.cell) -> Serve.Spec.ident c.job) cells
  in
  Alcotest.(check int) "idents unique"
    (List.length idents)
    (List.length (List.sort_uniq compare idents));
  (* expansion is a pure function of the spec *)
  Alcotest.(check bool) "same spec expands identically" true
    (Serve.Sweep.expand spec = cells);
  (* for kind=check the fuzz/hunt axes are not multiplied in *)
  let spec =
    parse_exn "name = s\nprotocols = mutex\nm = 2\nseeds = 1, 2, 3\n"
  in
  Alcotest.(check int) "check collapses the seed axis" 1
    (List.length (Serve.Sweep.expand spec));
  (* a fault axis IS a distinct cell even for an identical job spec *)
  let spec =
    parse_exn "name = f\nprotocols = mutex\nm = 2\nfaults = none, 42\n"
  in
  let cells = Serve.Sweep.expand spec in
  Alcotest.(check (list string)) "fault seed is part of the cell identity"
    [ "mutex-n2-m2-full"; "mutex-n2-m2-full-f42" ]
    (List.map (fun (c : Serve.Sweep.cell) -> c.label) cells);
  (* the engine axis keeps its labels: seq cells are bare, parallel ones
     end in -sharded *)
  let spec =
    parse_exn "name = e\nprotocols = mutex\nm = 3\nengines = seq, sharded\n"
  in
  Alcotest.(check (list string)) "engine axis labels"
    [ "mutex-n2-m3-full"; "mutex-n2-m3-full-sharded" ]
    (List.map (fun (c : Serve.Sweep.cell) -> c.label) (Serve.Sweep.expand spec))

let test_parse_rejects () =
  let bad =
    [
      ("no protocols", "name = x\nm = 3\n");
      ("unknown key", "protocols = mutex\nfrobnicate = 1\n");
      ("unknown protocol", "protocols = paxos\n");
      ("unknown verdict tag", "protocols = mutex\nexpect = maybe\n");
      ("malformed line", "protocols = mutex\nnot a kv line\n");
    ]
  in
  List.iter
    (fun (tag, s) ->
      match Serve.Sweep.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (tag ^ ": must not parse"))
    bad;
  match Serve.Sweep.parse "protocols = mutex\nengines = seq, barrier\n" with
  | Error e ->
    Alcotest.(check bool) ("engines = barrier names seq|sharded: " ^ e) true
      (contains ~affix:"seq|sharded" e)
  | Ok _ -> Alcotest.fail "engines = barrier must not parse"

(* ------------------- verdicts match coordctl check -------------------- *)

let test_smoke_sweep_matches_direct_check () =
  let report =
    Tmp.with_dir "sweep-smoke" (fun state_dir ->
        Serve.Sweep.run ~state_dir (parse_exn smoke_2x2))
  in
  let by_label l =
    List.find (fun (r : Serve.Sweep.row) -> r.label = l) report.rows
  in
  (* ground truth from the direct checker (pinned by test_amutex /
     experiment E2): odd m passes, even m violates mutual exclusion *)
  List.iter
    (fun (label, verdict, exit_code) ->
      let r = by_label label in
      Alcotest.(check string) (label ^ ": verdict") verdict r.verdict;
      Alcotest.(check int) (label ^ ": exit") exit_code r.exit_code;
      Alcotest.(check bool) (label ^ ": gate ok") true (r.gate = `Ok))
    [
      ("mutex-n2-m3-full", "pass", 0);
      ("mutex-n2-m3-canon", "pass", 0);
      ("mutex-n2-m4-full", "violation", 1);
      ("mutex-n2-m4-canon", "violation", 1);
    ];
  Alcotest.(check int) "no gate failures" 0 report.gates_failed;
  (* the expected violations count as violations, but with gates
     configured the sweep still exits 0 *)
  Alcotest.(check int) "violations counted" 2 report.violations;
  Alcotest.(check int) "gated sweep exits 0" 0 (Serve.Sweep.exit_code report);
  (* the canon cells explore strictly fewer states than full *)
  let full = (by_label "mutex-n2-m3-full").states in
  let canon = (by_label "mutex-n2-m3-canon").states in
  Alcotest.(check bool) "canon quotient is smaller" true (canon < full)

let test_ungated_sweep_exit () =
  (* no gates configured: a violation cell makes the sweep exit 1 *)
  let report =
    Tmp.with_dir "sweep-ungated" (fun state_dir ->
        Serve.Sweep.run ~state_dir
          (parse_exn "name = u\nprotocols = mutex\nm = 4\n"))
  in
  Alcotest.(check int) "violation without a gate fails the sweep" 1
    (Serve.Sweep.exit_code report)

(* ------------------------- regression gates --------------------------- *)

let test_seeded_gate_failure_fails () =
  (* expect pass everywhere, but m = 4 is a known violation: the gate
     must fail and the sweep must exit non-zero *)
  let report =
    Tmp.with_dir "sweep-gate" (fun state_dir ->
        Serve.Sweep.run ~state_dir
          (parse_exn "name = g\nprotocols = mutex\nm = 3, 4\nexpect = pass\n"))
  in
  Alcotest.(check int) "one gate failed" 1 report.gates_failed;
  Alcotest.(check int) "seeded gate failure fails the sweep" 1
    (Serve.Sweep.exit_code report);
  let bad =
    List.find
      (fun (r : Serve.Sweep.row) -> r.label = "mutex-n2-m4-full")
      report.rows
  in
  (match bad.gate with
  | `Fail msg ->
    Alcotest.(check bool) "gate message names the expectation" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "m=4 gate should have failed");
  let ok =
    List.find
      (fun (r : Serve.Sweep.row) -> r.label = "mutex-n2-m3-full")
      report.rows
  in
  Alcotest.(check bool) "m=3 gate still ok" true (ok.gate = `Ok)

(* --------------------------- cache re-run ----------------------------- *)

let test_rerun_served_from_cache () =
  let cache = Serve.Cache.create () in
  let spec = parse_exn smoke_2x2 in
  let run () =
    Tmp.with_dir "sweep-rerun" (fun state_dir ->
        Serve.Sweep.run ~cache ~state_dir spec)
  in
  let first = run () in
  Alcotest.(check bool) "first run explored" true (first.total_explored > 0);
  let second = run () in
  Alcotest.(check int) "re-run explores zero fresh states" 0
    second.total_explored;
  Alcotest.(check int) "every cell served from the cache" second.cells
    second.cached_cells;
  Alcotest.(check int) "same total states" first.total_states
    second.total_states;
  List.iter2
    (fun (a : Serve.Sweep.row) (b : Serve.Sweep.row) ->
      Alcotest.(check string) (a.label ^ ": same verdict") a.verdict b.verdict;
      Alcotest.(check int) (a.label ^ ": same exit") a.exit_code b.exit_code;
      Alcotest.(check int) (a.label ^ ": same states") a.states b.states)
    first.rows second.rows;
  Alcotest.(check int) "cached re-run keeps its gates and exit 0" 0
    (Serve.Sweep.exit_code second)

let suite =
  [
    Alcotest.test_case "expansion: deterministic, duplicate-free" `Quick
      test_expand_deterministic_duplicate_free;
    Alcotest.test_case "parse: malformed specs rejected" `Quick
      test_parse_rejects;
    Alcotest.test_case "2x2 smoke sweep matches direct check verdicts" `Quick
      test_smoke_sweep_matches_direct_check;
    Alcotest.test_case "ungated sweep fails on a violation" `Quick
      test_ungated_sweep_exit;
    Alcotest.test_case "seeded gate failure fails the sweep" `Quick
      test_seeded_gate_failure_fails;
    Alcotest.test_case "re-run against the cache explores nothing" `Quick
      test_rerun_served_from_cache;
  ]
