(* The suite runs in a private temp dir, and fails if any test leaves a
   file there. *)
let () =
  let tmp = Filename.temp_dir "anonring-test-" ".d" in
  Filename.set_temp_dir_name tmp;
  Unix.putenv "TMPDIR" tmp;
  let passed =
    match
      Alcotest.run ~and_exit:false "anonring"
        [
          ("rng", Test_rng.suite);
          ("naming", Test_naming.suite);
          ("memory", Test_memory.suite);
          ("schedule", Test_schedule.suite);
          ("runtime", Test_runtime.suite);
          ("stats", Test_stats.suite);
          ("check", Test_check.suite);
          ("scc", Test_scc.suite);
          ("dot", Test_dot.suite);
          ("flatgraph", Test_flatgraph.suite);
          ("codec", Test_codec.suite);
          ("gen", Test_gen.suite);
          ("shrink", Test_shrink.suite);
          ("fuzz", Test_fuzz.suite);
          ("fault", Test_fault.suite);
          ("hunt", Test_hunt.suite);
          ("explore_par", Test_explore_par.suite);
          ("snapshot", Test_snapshot.suite);
          ("canon", Test_canon.suite);
          ("props", Test_props.suite);
          ("trace", Test_trace.suite);
          ("wrap", Test_wrap.suite);
          ("amutex", Test_amutex.suite);
          ("cmp_mutex", Test_cmp_mutex.suite);
          ("consensus", Test_consensus.suite);
          ("election", Test_election.suite);
          ("renaming", Test_renaming.suite);
          ("ccp", Test_ccp.suite);
          ("baseline", Test_baseline.suite);
          ("lowerbound", Test_lowerbound.suite);
          ("report", Test_report.suite);
          ("parallel", Test_parallel.suite);
          ("resilience", Test_resilience.suite);
          ("disk_visited", Test_disk_visited.suite);
          ("serve", Test_serve.suite);
          ("sweep", Test_sweep.suite);
        ]
    with
    | () -> true
    | exception Alcotest.Test_error -> false
  in
  let left = Sys.readdir tmp in
  Array.sort compare left;
  if left <> [||] then begin
    Printf.eprintf "%d file(s) left in the test temp dir %s:\n"
      (Array.length left) tmp;
    Array.iter (Printf.eprintf "  %s\n") left
  end;
  Tmp.remove tmp;
  exit (if passed && left = [||] then 0 else 1)
