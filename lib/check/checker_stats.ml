type depth_sample = {
  depth : int;
  frontier : int;
  candidates : int;
  discovered : int;
  duplicates : int;
}

type stop_reason =
  | Completed
  | Budget
  | Interrupted
  | Deadline
  | Oom
  | Disk_full

let stop_reason_tag = function
  | Completed -> "completed"
  | Budget -> "budget"
  | Interrupted -> "interrupted"
  | Deadline -> "deadline"
  | Oom -> "oom"
  | Disk_full -> "disk_full"

type t = {
  protocol : string;
  n_procs : int;
  n_registers : int;
  domains : int;
  n_states : int;
  n_transitions : int;
  max_depth : int;
  max_frontier : int;
  candidates : int;
  dedup_hits : int;
  elapsed_s : float;
  complete : bool;
  stop : stop_reason;
  restarts : int;
  recoveries : int;
  canon : bool;
  degraded : bool;
  group_order : int;
  orbit_sum : int;
  sig_pruned : int;
  canon_hits : int;
  cutover : int option;
  spilled_runs : int;
  disk_probes : int;
  depths : depth_sample list;
}

let now = Unix.gettimeofday

let states_per_sec t =
  if t.elapsed_s <= 0. then 0. else float_of_int t.n_states /. t.elapsed_s

let dedup_rate t =
  if t.candidates = 0 then 0.
  else float_of_int t.dedup_hits /. float_of_int t.candidates

let reduction_factor t =
  if t.n_states = 0 then 1.
  else float_of_int t.orbit_sum /. float_of_int t.n_states

let equal_ignoring_time a b =
  (* [sig_pruned]/[canon_hits] are cache-effectiveness counters, not graph
     facts: they vary with domain count and with where a resume restarted
     its (cold) caches, so the bit-identity relation must ignore them.
     [restarts] likewise counts infrastructure weather (how many worker
     domains died and were respawned), not anything about the graph —
     as do [recoveries] (whole attempts [with_recovery] retried)
     and [spilled_runs]/[disk_probes] (where the memory watermark
     happened to trip, and how much of a resumed run's probing the
     interrupted run had already paid for). *)
  let scrub t =
    {
      t with
      elapsed_s = 0.;
      sig_pruned = 0;
      canon_hits = 0;
      restarts = 0;
      recoveries = 0;
      spilled_runs = 0;
      disk_probes = 0;
    }
  in
  scrub a = scrub b

let pp ppf t =
  Format.fprintf ppf
    "@[<v>checker: %s n=%d m=%d (%d domain%s)@,\
     states %d (%s), transitions %d, depth %d, peak frontier %d@,\
     throughput %.0f states/s (%.3f s)@,\
     dedup: %d/%d candidate successors were duplicates (%.1f%% hit-rate)"
    t.protocol t.n_procs t.n_registers t.domains
    (if t.domains = 1 then "" else "s")
    t.n_states
    (if t.complete then "complete"
     else "TRUNCATED: " ^ stop_reason_tag t.stop)
    t.n_transitions t.max_depth t.max_frontier (states_per_sec t) t.elapsed_s
    t.dedup_hits t.candidates
    (100. *. dedup_rate t);
  if t.canon then begin
    Format.fprintf ppf
      "@,symmetry: group order %d, orbit sum %d (%.2fx reduction), %d \
       automorphisms pruned, %d cache hits"
      t.group_order t.orbit_sum (reduction_factor t) t.sig_pruned
      t.canon_hits;
    if t.degraded then
      Format.fprintf ppf
        "@,symmetry: DEGRADED — identity group only (protocol not \
         symmetric, or n > 7); the full graph was explored"
  end;
  (match t.cutover with
  | Some dep -> Format.fprintf ppf "@,parallel cutover at depth %d" dep
  | None -> ());
  if t.restarts > 0 then
    Format.fprintf ppf "@,supervision: %d worker domain restart%s" t.restarts
      (if t.restarts = 1 then "" else "s");
  if t.recoveries > 0 then
    Format.fprintf ppf
      "@,recovery: %d attempt%s retried from the newest salvageable state"
      t.recoveries
      (if t.recoveries = 1 then "" else "s");
  if t.spilled_runs > 0 || t.disk_probes > 0 then
    Format.fprintf ppf
      "@,disk visited: %d sorted runs spilled, %d batched probes" t.spilled_runs
      t.disk_probes;
  Format.fprintf ppf "@]"

let pp_depths ppf t =
  Format.fprintf ppf "@[<v>%-6s %10s %12s %12s %12s@," "depth" "frontier"
    "candidates" "discovered" "duplicates";
  List.iter
    (fun d ->
      Format.fprintf ppf "%-6d %10d %12d %12d %12d@," d.depth d.frontier
        d.candidates d.discovered d.duplicates)
    t.depths;
  Format.fprintf ppf "@]"

(* Hand-rolled JSON so BENCH_*.json entries need no extra dependency. *)
let to_json t =
  let buf = Buffer.create 512 in
  let field ?(last = false) name value =
    Buffer.add_string buf (Printf.sprintf "  %S: %s%s\n" name value
                             (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  field "protocol" (Printf.sprintf "%S" t.protocol);
  field "n_procs" (string_of_int t.n_procs);
  field "n_registers" (string_of_int t.n_registers);
  field "domains" (string_of_int t.domains);
  field "states" (string_of_int t.n_states);
  field "transitions" (string_of_int t.n_transitions);
  field "max_depth" (string_of_int t.max_depth);
  field "max_frontier" (string_of_int t.max_frontier);
  field "candidates" (string_of_int t.candidates);
  field "dedup_hits" (string_of_int t.dedup_hits);
  field "dedup_rate" (Printf.sprintf "%.4f" (dedup_rate t));
  field "elapsed_s" (Printf.sprintf "%.6f" t.elapsed_s);
  field "states_per_sec" (Printf.sprintf "%.1f" (states_per_sec t));
  field "canon" (string_of_bool t.canon);
  field "degraded" (string_of_bool t.degraded);
  field "group_order" (string_of_int t.group_order);
  field "orbit_sum" (string_of_int t.orbit_sum);
  field "sig_pruned" (string_of_int t.sig_pruned);
  field "canon_cache_hits" (string_of_int t.canon_hits);
  field "reduction_factor" (Printf.sprintf "%.4f" (reduction_factor t));
  (match t.cutover with
  | Some dep -> field "cutover" (string_of_int dep)
  | None -> field "cutover" "null");
  field "stop" (Printf.sprintf "%S" (stop_reason_tag t.stop));
  field "restarts" (string_of_int t.restarts);
  field "recoveries" (string_of_int t.recoveries);
  field "spilled_runs" (string_of_int t.spilled_runs);
  field "disk_probes" (string_of_int t.disk_probes);
  field ~last:true "complete" (string_of_bool t.complete);
  Buffer.add_string buf "}";
  Buffer.contents buf
