(* The checker's benchmark: one workload per run, end-to-end metrics with
   tracing off, per-layer metrics from a traced run. Usage:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR

   Every file the run writes lives under DIR. The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

module H = Harness
module M = Perfbench_measure.Measure

let end_to_end =
  [
    ("setup_s", "s");
    ("verdict_s", "s");
    ("states_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("words_per_state", "words");
  ]

(* Every per-layer metric; a workload that does not load a layer reports
   it as 0. *)
let per_layer =
  [
    ("successors.ns_per_state", "ns");
    ("successors.words_per_state", "words");
    ("codec.ns_per_key", "ns");
    ("codec.words_per_key", "words");
    ("canon.ns_per_candidate", "ns");
    ("canon.words_per_candidate", "words");
    ("canon.memo_hit_ratio", "ratio");
    ("canon.pruned_per_candidate", "ratio");
    ("explore.busy_s", "s");
    ("explore.dedup_ratio", "ratio");
    ("explore.words_per_state", "words");
    ("explore.residual_ns_per_state", "ns");
    ("explore.bytes_per_state", "bytes");
    ("to_flat.ns_per_state", "ns");
    ("to_flat.words_per_state", "words");
    ("mutex_props.me_ns_per_state", "ns");
    ("mutex_props.df_ns_per_state", "ns");
    ("snapshot.yields", "count");
    ("snapshot.bytes_per_yield", "bytes");
    ("snapshot.read_ms_p50", "ms");
    ("disk.runs", "count");
    ("disk.probes", "count");
    ("disk.bytes_per_state", "bytes");
    ("disk.spill_ms_per_run", "ms");
    ("disk.probe_ns_per_key", "ns");
    ("pool.busy_frac", "ratio");
    ("pool.queue_ms_p50", "ms");
    ("pool.queue_ms_p90", "ms");
    ("pool.service_ms_p90", "ms");
    ("pool.slices_per_job", "count");
    ("pool.recoveries", "count");
    ("gen.lag_ms_max", "ms");
    ("cache.hit_ratio", "ratio");
    ("cache.collisions", "count");
    ("cache.load_s", "s");
    ("cache.save_s", "s");
    ("runner.check_ms_p50", "ms");
    ("runner.fuzz_ms_p50", "ms");
    ("runner.hunt_ms_p50", "ms");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("latency_ms_p50", "ms");
    ("latency_ms_p90", "ms");
    ("latency.samples", "count");
    ("trace.overhead_frac", "ratio");
    ("host.ref_ms", "ms");
  ]

let workloads = [ "thm31-sweep"; "amutex-m5-n3-canon"; "serve-mix"; "amutex-m3-n3-disk" ]

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else H.fail "metric %s is not a finite number" name

let render (o : H.outcome) ~trace ~ref_s =
  let declared = if trace then per_layer else end_to_end in
  let values = if trace then ("host.ref_ms", 1e3 *. ref_s) :: o.H.layer else o.H.e2e in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k declared) then H.fail "undeclared metric %s" k)
    values;
  let metric (name, unit) =
    let v =
      match List.assoc_opt name values with
      | Some v -> v
      | None when trace -> 0.0
      | None -> H.fail "end-to-end metric %s not measured" name
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number name v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.H.correct && o.H.failed = 0)
    o.H.attempted o.H.failed
    (String.concat ", " (List.map metric declared))

(* The traced run's spans, summed per name, as a table on stderr: the
   layer shares recorded next to BENCHMARK.json come from here. *)
let write_spans spans =
  match spans with
  | [] -> ()
  | _ ->
    let tot = M.totals spans in
    let roots = List.filter (fun s -> s.M.parent < 0) spans in
    let wall = M.sum (List.map (fun s -> s.M.t1 -. s.M.t0) roots) in
    Printf.eprintf "%-22s %8s %12s %10s %10s %7s\n" "span" "spans" "items" "total_s" "self_s" "self%";
    Hashtbl.fold (fun name t acc -> (name, t) :: acc) tot []
    |> List.sort (fun (_, a) (_, b) -> compare b.M.self_s a.M.self_s)
    |> List.iter (fun (name, t) ->
           Printf.eprintf "%-22s %8d %12d %10.4f %10.4f %6.1f%%\n" name t.M.spans_n t.M.items
             t.M.dur_s t.M.self_s (100.0 *. M.ratio t.M.self_s wall))

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and tmp = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--tmp", Arg.Set_string tmp, "DIR scratch directory (must exist)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR";
  if not (Sys.file_exists !tmp && Sys.is_directory !tmp) then begin
    prerr_endline "perfbench: --tmp must name an existing directory";
    exit 2
  end;
  let trace = !trace = 1 and seconds = !seconds in
  let host = M.host_start () in
  H.host := Some host;
  match
    Fun.protect
      ~finally:(fun () -> M.host_stop host)
      (fun () ->
        match !workload with
        | "thm31-sweep" -> Explore_wl.thm31 ~seconds ~trace
        | "amutex-m5-n3-canon" -> Explore_wl.canon ~seconds ~trace
        | "amutex-m3-n3-disk" -> Explore_wl.disk ~tmp:!tmp ~seconds ~trace
        | "serve-mix" -> Serve_wl.run ~tmp:!tmp ~seed:!seed ~trace
        | w -> H.fail "unknown workload %S (known: %s)" w (String.concat ", " workloads))
  with
  | o ->
    write_spans o.H.spans;
    let ref_s = M.median (List.map snd !H.host_samples) in
    H.log "perfbench: host reference %.2f ms (median of %d), nominal %.2f ms"
      (1e3 *. ref_s) (List.length !H.host_samples) (1e3 *. H.nominal_ref_s);
    let line = render o ~trace ~ref_s in
    print_endline line;
    if not (o.H.correct && o.H.failed = 0) then begin
      Printf.eprintf "perfbench: %s: output checks failed (%d of %d)\n" !workload
        o.H.failed o.H.attempted;
      exit 1
    end
  | exception H.Workload_failed msg ->
    Printf.eprintf "perfbench: %s: %s\n" !workload msg;
    exit 1
