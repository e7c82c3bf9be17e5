(* The job-queue verification service. Contracts pinned here:

   - queue ordering: priority descending, FIFO within a class, and a
     yielded job re-queues BEHIND its class (round-robin, no hogging);
   - per-job state budgets are enforced per configuration (exit 3);
   - the verdict cache hits on fingerprint + full identity, detects a
     deliberate digest collision (degrades to a miss, never a wrong
     verdict), and serves a repeat submission with zero fresh states;
   - a preempted-then-resumed job's verdict and per-config stats are
     bit-identical (mod clock) to the same job run uninterrupted;
   - deadline and cancel exit paths;
   - a crash mid-job (Resilience.plan_of_seed-style faults) is absorbed:
     the pool retries with salvage and converges on the fault-free
     result. *)

let spec_check ?max_states ?deadline_s ?priority ?(m = 3) () =
  Serve.Spec.make ?max_states ?deadline_s ?priority ~m Serve.Spec.Check
    Serve.Spec.Mutex

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let with_plan plan f =
  Resilience.arm plan;
  Fun.protect ~finally:Resilience.disarm f

let finished_outcome tag pool id =
  match (Option.get (Serve.Pool.job pool id)).Serve.Pool.status with
  | Serve.Pool.Finished o -> o
  | Serve.Pool.Crashed msg -> Alcotest.fail (tag ^ ": crashed: " ^ msg)
  | _ -> Alcotest.fail (tag ^ ": not finished")

let check_stats_list tag (a : Check.Checker_stats.t list)
    (b : Check.Checker_stats.t list) =
  Alcotest.(check int) (tag ^ ": same config count") (List.length a)
    (List.length b);
  List.iteri
    (fun i (x, y) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: cfg %d stats bit-identical (mod clock)" tag i)
        true
        (Check.Checker_stats.equal_ignoring_time x y))
    (List.combine a b)

(* ------------------------------ spec ---------------------------------- *)

let test_spec_roundtrip () =
  let par =
    Serve.Spec.make ~engine:Serve.Spec.Par Serve.Spec.Check Serve.Spec.Mutex
  in
  let specs =
    [
      spec_check ~max_states:1000 ~deadline_s:1.5 ~priority:3 ();
      Serve.Spec.make ~n:3 ~attempts:50 ~seed:7 Serve.Spec.Fuzz
        Serve.Spec.Consensus;
      Serve.Spec.make ~steps:500 ~strategy:Check.Hunt.Chaos Serve.Spec.Hunt
        Serve.Spec.Renaming;
      par;
    ]
  in
  List.iter
    (fun s ->
      match Serve.Spec.parse (Serve.Spec.to_line s) with
      | Ok s' ->
        Alcotest.(check bool)
          ("round-trips: " ^ Serve.Spec.to_line s)
          true (s = s')
      | Error e -> Alcotest.fail e)
    specs;
  (* defaults match coordctl check *)
  Alcotest.(check int) "mutex default m" 3
    (Serve.Spec.make Serve.Spec.Check Serve.Spec.Mutex).Serve.Spec.m;
  Alcotest.(check int) "consensus default m at n=3" 5
    (Serve.Spec.make ~n:3 Serve.Spec.Check Serve.Spec.Consensus).Serve.Spec.m;
  (* the parallel engine keeps the name spool files and cache idents
     carry *)
  Alcotest.(check bool) "par renders engine=sharded in to_line" true
    (contains ~affix:"engine=sharded" (Serve.Spec.to_line par));
  Alcotest.(check bool) "par renders engine=sharded in ident" true
    (contains ~affix:"engine=sharded" (Serve.Spec.ident par));
  (* priority is scheduling, not identity *)
  Alcotest.(check string) "priority not in ident"
    (Serve.Spec.ident (spec_check ()))
    (Serve.Spec.ident (spec_check ~priority:9 ()));
  (match Serve.Spec.parse "kind = check" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing proto must not parse");
  (match Serve.Spec.parse "kind = check\nproto = mutex\nengine = barrier" with
  | Error e ->
    Alcotest.(check bool) ("engine = barrier names seq|sharded: " ^ e) true
      (contains ~affix:"seq|sharded" e)
  | Ok _ -> Alcotest.fail "engine = barrier must not parse");
  match Serve.Spec.parse "kind = check\nproto = mutex\nfrobnicate = 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key must not parse"

(* ------------------------------ cache --------------------------------- *)

let entry ident =
  {
    Serve.Cache.ident;
    verdict = "pass";
    exit_code = 0;
    detail = "d";
    n_states = 1;
    stats = None;
  }

let test_cache_hit_miss_collision () =
  let c = Serve.Cache.create () in
  let key = Digest.string "some-config" in
  Serve.Cache.add c ~key (entry "config A");
  (match Serve.Cache.find c ~key ~ident:"config A" with
  | Some e -> Alcotest.(check string) "hit returns the entry" "config A"
                e.Serve.Cache.ident
  | None -> Alcotest.fail "expected a hit");
  Alcotest.(check int) "one hit" 1 (Serve.Cache.hits c);
  (* a deliberate collision: same 16-byte digest, different configuration
     identity — must degrade to a detected miss, never a wrong verdict *)
  (match Serve.Cache.find c ~key ~ident:"config B (colliding)" with
  | None -> ()
  | Some _ -> Alcotest.fail "a colliding ident must not hit");
  Alcotest.(check int) "collision counted" 1 (Serve.Cache.collisions c);
  (match Serve.Cache.find c ~key:(Digest.string "other") ~ident:"x" with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown key must miss");
  Alcotest.(check int) "misses counted" 2 (Serve.Cache.misses c);
  (* both colliding entries can coexist under the key *)
  Serve.Cache.add c ~key (entry "config B (colliding)");
  Alcotest.(check int) "bucket holds both" 2 (Serve.Cache.length c);
  match Serve.Cache.find c ~key ~ident:"config B (colliding)" with
  | Some _ -> ()
  | None -> Alcotest.fail "second entry must now hit"

let test_cache_save_load () =
  let c = Serve.Cache.create () in
  let key = Digest.string "k" in
  Serve.Cache.add c ~key (entry "id1");
  let path = Filename.temp_file "coordserve-cache" ".bin" in
  Serve.Cache.save c ~path;
  let c' = Serve.Cache.load ~path in
  Alcotest.(check int) "entries survive" 1 (Serve.Cache.length c');
  (match Serve.Cache.find c' ~key ~ident:"id1" with
  | Some _ -> ()
  | None -> Alcotest.fail "persisted entry must hit");
  (* a corrupt file loads as an empty cache, not an exception *)
  let overwrite bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  overwrite "not a marshalled cache";
  Alcotest.(check int) "corrupt file -> empty cache" 0
    (Serve.Cache.length (Serve.Cache.load ~path));
  (* a raw-Marshal file of entries, as older builds wrote it, is
     discarded rather than decoded against today's layout *)
  overwrite
    (Marshal.to_string
       ([ (key, [ entry "id1" ]) ] : (string * Serve.Cache.entry list) list)
       []);
  Alcotest.(check int) "raw Marshal file -> empty cache" 0
    (Serve.Cache.length (Serve.Cache.load ~path));
  (* a file of the previous layout (v2: check details without namings,
     fuzz verdicts from campaigns without twins) is discarded whole *)
  let v2 = "coordctl verdict cache v2" in
  Check.Snapshot.write ~path ~fingerprint:(Digest.string v2) ~descr:v2
    (Marshal.to_string
       ([ (key, [ entry "id1" ]) ] : (string * Serve.Cache.entry list) list)
       []);
  Alcotest.(check int) "v2 layout -> empty cache" 0
    (Serve.Cache.length (Serve.Cache.load ~path));
  (* one flipped payload byte fails the CRC *)
  Serve.Cache.save c ~path;
  let ic = open_in_bin path in
  let saved = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let flipped = Bytes.of_string saved in
  let at = Bytes.length flipped - 8 in
  Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 0x40));
  overwrite (Bytes.to_string flipped);
  Alcotest.(check int) "flipped payload byte -> empty cache" 0
    (Serve.Cache.length (Serve.Cache.load ~path));
  Sys.remove path

(* -------------------------- queue ordering ---------------------------- *)

let test_queue_ordering () =
  Tmp.with_dir "serve-queue" @@ fun dir ->
  (* tiny quantum so check jobs yield instead of finishing in one slice *)
  let pool = Serve.Pool.create ~quantum:200 ~state_dir:dir () in
  let j0 = Serve.Pool.submit pool (spec_check ()) in
  let j1 = Serve.Pool.submit pool (spec_check ~priority:5 ()) in
  let j2 = Serve.Pool.submit pool (spec_check ()) in
  Alcotest.(check (list int)) "priority desc, FIFO within a class"
    [ j1; j0; j2 ]
    (Serve.Pool.runnable pool);
  (* the high-priority job runs first; it yields and STAYS first (its
     class outranks the others) *)
  ignore (Serve.Pool.step pool);
  Alcotest.(check (list int)) "yielded high-priority job keeps its class"
    [ j1; j0; j2 ]
    (Serve.Pool.runnable pool);
  (* cancel it; now the two equal-priority jobs round-robin: j0 slices,
     then re-queues behind j2 *)
  Alcotest.(check bool) "cancel a yielded job" true (Serve.Pool.cancel pool j1);
  ignore (Serve.Pool.step pool);
  Alcotest.(check (list int)) "yielded job goes behind its class" [ j2; j0 ]
    (Serve.Pool.runnable pool);
  Serve.Pool.drain pool;
  let o0 = finished_outcome "j0" pool j0 in
  Alcotest.(check int) "cancelled job explored nothing, others complete" 0
    o0.Serve.Runner.cached_configs

(* ------------------------- budget enforcement ------------------------- *)

let test_per_job_budget () =
  Tmp.with_dir "serve-budget" @@ fun dir ->
  let pool = Serve.Pool.create ~state_dir:dir () in
  let id = Serve.Pool.submit pool (spec_check ~max_states:500 ()) in
  Serve.Pool.drain pool;
  let o = finished_outcome "budget" pool id in
  Alcotest.(check bool) "budget truncates the job" true
    (o.Serve.Runner.verdict = Serve.Runner.Truncated);
  Alcotest.(check int) "exit 3" 3 (Serve.Runner.verdict_exit o.Serve.Runner.verdict);
  Alcotest.(check int) "all six namings attempted" 6 o.Serve.Runner.configs;
  List.iter
    (fun st ->
      Alcotest.(check bool) "each config stopped on its budget" true
        (st.Check.Checker_stats.stop = Check.Checker_stats.Budget))
    o.Serve.Runner.stats

(* --------------- preemption: resume is bit-identical ------------------ *)

let test_preempt_resume_bit_identity () =
  (* the same job, uninterrupted (huge quantum: one slice per config)
     vs preempted every 700 states; separate caches so neither feeds the
     other *)
  Tmp.with_dir "serve-preempt" @@ fun base ->
  let run ~quantum =
    let dir = Filename.concat base (Printf.sprintf "q%d" quantum) in
    let pool = Serve.Pool.create ~quantum ~state_dir:dir () in
    let id = Serve.Pool.submit pool (spec_check ()) in
    Serve.Pool.drain pool;
    ( finished_outcome "preempt" pool id,
      (Option.get (Serve.Pool.job pool id)).Serve.Pool.slices )
  in
  let uo, uslices = run ~quantum:1_000_000 in
  let po, pslices = run ~quantum:700 in
  Alcotest.(check bool) "preemption actually happened" true
    (pslices > uslices);
  Alcotest.(check bool) "same verdict" true
    (po.Serve.Runner.verdict = uo.Serve.Runner.verdict);
  Alcotest.(check int) "same total states" uo.Serve.Runner.states
    po.Serve.Runner.states;
  Alcotest.(check int) "same fresh states" uo.Serve.Runner.explored
    po.Serve.Runner.explored;
  Alcotest.(check string) "same detail" uo.Serve.Runner.detail
    po.Serve.Runner.detail;
  check_stats_list "preempted vs uninterrupted" uo.Serve.Runner.stats
    po.Serve.Runner.stats

(* ------------------- repeat submissions hit the cache ----------------- *)

let test_repeat_served_from_cache () =
  Tmp.with_dir "serve-repeat" @@ fun dir ->
  let pool = Serve.Pool.create ~quantum:900 ~state_dir:dir () in
  let a = Serve.Pool.submit pool (spec_check ()) in
  Serve.Pool.drain pool;
  let explored_after_first = Serve.Pool.explored pool in
  let b = Serve.Pool.submit pool (spec_check ()) in
  Serve.Pool.drain pool;
  let oa = finished_outcome "first" pool a in
  let ob = finished_outcome "repeat" pool b in
  Alcotest.(check int) "repeat explored zero fresh states" 0
    ob.Serve.Runner.explored;
  Alcotest.(check int) "pool explored nothing new" explored_after_first
    (Serve.Pool.explored pool);
  Alcotest.(check int) "every config served from cache"
    ob.Serve.Runner.configs ob.Serve.Runner.cached_configs;
  Alcotest.(check int) "a fully-cached job takes one slice" 1
    (Option.get (Serve.Pool.job pool b)).Serve.Pool.slices;
  Alcotest.(check bool) "same verdict" true
    (oa.Serve.Runner.verdict = ob.Serve.Runner.verdict);
  Alcotest.(check int) "same states" oa.Serve.Runner.states
    ob.Serve.Runner.states;
  (* the cached stats are the original run's stats, bit for bit *)
  check_stats_list "cached stats replay the original" oa.Serve.Runner.stats
    ob.Serve.Runner.stats;
  (* a different m is a different fingerprint: no false sharing *)
  let c = Serve.Pool.submit pool (spec_check ~m:2 ()) in
  Serve.Pool.drain pool;
  let oc_ = finished_outcome "m=2" pool c in
  Alcotest.(check int) "different config misses the cache" 0
    oc_.Serve.Runner.cached_configs

(* ---------------- a check job streams one line per config ------------- *)

(* [on_config] fires once per configuration, in sweep order, with the
   line [detail] stores — as it is explored, and again when the repeat
   is served from the cache. *)
let test_on_config_streams_detail () =
  let cache = Serve.Cache.create () in
  List.iter
    (fun (pass, cached) ->
      let lines = ref [] and with_stats = ref 0 in
      let on_config line st =
        lines := line :: !lines;
        if Option.is_some st then incr with_stats
      in
      match
        Serve.Runner.run_slice ~cache ~on_config (spec_check ())
          Serve.Runner.start
      with
      | Serve.Runner.Yield _ ->
        Alcotest.fail (pass ^ ": an unsliced run yielded")
      | Serve.Runner.Done o ->
        let configs = o.Serve.Runner.configs in
        Alcotest.(check int) (pass ^ ": cached configs")
          (if cached then configs else 0)
          o.Serve.Runner.cached_configs;
        Alcotest.(check int) (pass ^ ": one call per configuration") configs
          (List.length !lines);
        Alcotest.(check string) (pass ^ ": the lines of detail, in order")
          o.Serve.Runner.detail
          (String.concat "; " (List.rev !lines));
        Alcotest.(check int) (pass ^ ": stats with every line") configs
          !with_stats)
    [ ("explored", false); ("cached", true) ]

(* ------------- every protocol x job kind runs to a verdict ------------ *)

(* The protocol table is the only per-protocol wiring: every protocol must
   resolve for every job kind, unsliced (as [coordctl check] runs it), and
   a check must sweep all m! relative namings at n = 2. *)
let test_every_protocol_and_kind () =
  let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
  List.iter
    (fun proto ->
      List.iter
        (fun kind ->
          let spec =
            Serve.Spec.make ~max_states:300 ~attempts:2 ~steps:200 kind proto
          in
          let name =
            Serve.Spec.kind_to_string kind ^ " "
            ^ Serve.Spec.proto_to_string proto
          in
          match Serve.Runner.run_slice spec Serve.Runner.start with
          | Serve.Runner.Yield _ -> Alcotest.fail (name ^ ": unsliced job yielded")
          | Serve.Runner.Done { Serve.Runner.verdict = Serve.Runner.Failed e; _ }
            ->
            Alcotest.fail (name ^ ": failed: " ^ e)
          | Serve.Runner.Done o ->
            if kind = Serve.Spec.Check then begin
              Alcotest.(check int) (name ^ ": m! configurations")
                (fact spec.Serve.Spec.m) o.Serve.Runner.configs;
              Alcotest.(check int) (name ^ ": one detail line each")
                o.Serve.Runner.configs
                (List.length (String.split_on_char ';' o.Serve.Runner.detail))
            end)
        Serve.Spec.[ Check; Fuzz; Hunt ])
    Serve.Spec.[ Mutex; Cmp_mutex; Consensus; Election; Renaming; Ccp ]

(* ------------------------ deadline and cancel ------------------------- *)

let test_deadline_exit () =
  Tmp.with_dir "serve-deadline" @@ fun dir ->
  let pool = Serve.Pool.create ~state_dir:dir () in
  (* an expired deadline still stops gracefully at a generation boundary *)
  let id = Serve.Pool.submit pool (spec_check ~deadline_s:0.0 ()) in
  Serve.Pool.drain pool;
  let o = finished_outcome "deadline" pool id in
  Alcotest.(check bool) "deadline verdict" true
    (o.Serve.Runner.verdict = Serve.Runner.Deadline);
  Alcotest.(check int) "exit 6" 6
    (Serve.Runner.verdict_exit o.Serve.Runner.verdict);
  (* a generous deadline changes nothing *)
  let id2 = Serve.Pool.submit pool (spec_check ~deadline_s:3600.0 ()) in
  Serve.Pool.drain pool;
  let o2 = finished_outcome "generous deadline" pool id2 in
  Alcotest.(check bool) "pass under a generous deadline" true
    (o2.Serve.Runner.verdict = Serve.Runner.Pass);
  (* unsliced, as `coordctl check` runs it: the deadline bounds the whole
     job, which ends on its first configuration *)
  match
    Serve.Runner.run_slice ~deadline_left_s:0.0 (spec_check ())
      Serve.Runner.start
  with
  | Serve.Runner.Yield _ -> Alcotest.fail "unsliced job yielded"
  | Serve.Runner.Done o ->
    Alcotest.(check bool) "unsliced deadline verdict" true
      (o.Serve.Runner.verdict = Serve.Runner.Deadline);
    Alcotest.(check int) "one configuration judged" 1
      (List.length (String.split_on_char ';' o.Serve.Runner.detail))

let test_cancel_paths () =
  Tmp.with_dir "serve-cancel" @@ fun dir ->
  let pool = Serve.Pool.create ~state_dir:dir () in
  let a = Serve.Pool.submit pool (spec_check ()) in
  let b = Serve.Pool.submit pool (spec_check ~m:2 ()) in
  Alcotest.(check bool) "cancel a queued job" true (Serve.Pool.cancel pool b);
  Serve.Pool.drain pool;
  Alcotest.(check bool) "cancelled job never ran" true
    ((Option.get (Serve.Pool.job pool b)).Serve.Pool.status
    = Serve.Pool.Cancelled);
  ignore (finished_outcome "survivor" pool a);
  Alcotest.(check bool) "cannot cancel a finished job" false
    (Serve.Pool.cancel pool a);
  Alcotest.(check bool) "cannot cancel an unknown job" false
    (Serve.Pool.cancel pool 999)

(* --------------------- crash-mid-job salvage -------------------------- *)

let test_crash_mid_job_salvage () =
  Tmp.with_dir "serve-crash" @@ fun base ->
  let clean =
    let pool =
      Serve.Pool.create ~state_dir:(Filename.concat base "clean") ()
    in
    let id = Serve.Pool.submit pool (spec_check ()) in
    Serve.Pool.drain pool;
    finished_outcome "fault-free" pool id
  in
  (* a worker kill escapes the slice as an exception; the pool repairs
     the cursor and retries (salvage on), converging on the clean result *)
  let plan =
    {
      Resilience.seed = 2;
      faults = [ Resilience.Kill_domain { domain = 0; after_ticks = 600 } ];
    }
  in
  with_plan plan (fun () ->
      let pool =
        Serve.Pool.create ~state_dir:(Filename.concat base "kill") ()
      in
      let id = Serve.Pool.submit pool (spec_check ()) in
      Serve.Pool.drain pool;
      Alcotest.(check int) "the kill fired" 1 (Resilience.fired ());
      let j = Option.get (Serve.Pool.job pool id) in
      Alcotest.(check bool) "the crash cost a recovery" true
        (j.Serve.Pool.recoveries >= 1);
      let o = finished_outcome "killed" pool id in
      Alcotest.(check bool) "same verdict as fault-free" true
        (o.Serve.Runner.verdict = clean.Serve.Runner.verdict);
      Alcotest.(check int) "same states as fault-free"
        clean.Serve.Runner.states o.Serve.Runner.states;
      check_stats_list "salvaged stats match fault-free" clean.Serve.Runner.stats
        o.Serve.Runner.stats);
  (* an allocation failure degrades INSIDE the slice (Oom stop with a
     flushed snapshot); the runner yields and resumes without the pool
     ever seeing an exception *)
  let plan =
    {
      Resilience.seed = 3;
      faults = [ Resilience.Alloc_fail { after_boundaries = 3 } ];
    }
  in
  with_plan plan (fun () ->
      let pool =
        Serve.Pool.create ~state_dir:(Filename.concat base "oom") ()
      in
      let id = Serve.Pool.submit pool (spec_check ()) in
      Serve.Pool.drain pool;
      let o = finished_outcome "oom" pool id in
      Alcotest.(check bool) "same verdict after oom degradation" true
        (o.Serve.Runner.verdict = clean.Serve.Runner.verdict);
      Alcotest.(check int) "same states after oom degradation"
        clean.Serve.Runner.states o.Serve.Runner.states;
      check_stats_list "oom-degraded stats match fault-free"
        clean.Serve.Runner.stats o.Serve.Runner.stats)

(* ------------------------------ daemon -------------------------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let read_kv path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line '=' with
         | None -> None
         | Some i ->
           Some
             ( String.trim (String.sub line 0 i),
               String.trim
                 (String.sub line (i + 1) (String.length line - i - 1)) ))

let test_daemon_once_drains_spool () =
  Tmp.with_dir "serve-spool" @@ fun spool ->
  let run_once () =
    Serve.Daemon.run
      ~log:(fun _ -> ())
      {
        (Serve.Daemon.default ~spool) with
        Serve.Daemon.once = true;
        workers = 1;
      }
  in
  write_file
    (Filename.concat spool "good.job")
    "kind = check\nproto = mutex\nm = 3\n";
  write_file (Filename.concat spool "bad.job") "kind = check\n";
  let code = run_once () in
  Alcotest.(check int) "clean exit" 0 code;
  let kv = read_kv (Filename.concat spool "done/good.result") in
  Alcotest.(check (option string)) "verdict recorded" (Some "pass")
    (List.assoc_opt "verdict" kv);
  Alcotest.(check (option string)) "exit recorded" (Some "0")
    (List.assoc_opt "exit" kv);
  (* the malformed spec got an error file, not a wedged daemon *)
  Alcotest.(check bool) "parse error reported" true
    (Sys.file_exists (Filename.concat spool "done/bad.error"));
  (* a restarted daemon loads the persisted cache and answers the
     identical job without exploring anything *)
  write_file
    (Filename.concat spool "again.job")
    "kind = check\nproto = mutex\nm = 3\n";
  Alcotest.(check int) "second run clean exit" 0 (run_once ());
  let kv2 = read_kv (Filename.concat spool "done/again.result") in
  Alcotest.(check (option string)) "repeat served from cache" (Some "true")
    (List.assoc_opt "cached" kv2);
  Alcotest.(check (option string)) "repeat explored nothing" (Some "0")
    (List.assoc_opt "explored" kv2);
  Alcotest.(check (option string)) "cached verdict matches"
    (List.assoc_opt "verdict" kv)
    (List.assoc_opt "verdict" kv2);
  (* the spool itself was drained *)
  Alcotest.(check bool) "job files claimed" true
    (Array.for_all
       (fun f -> not (Filename.check_suffix f ".job"))
       (Sys.readdir spool))

let suite =
  [
    Alcotest.test_case "spec round-trips; coordctl defaults" `Quick
      test_spec_roundtrip;
    Alcotest.test_case "cache: hit, miss, detected collision" `Quick
      test_cache_hit_miss_collision;
    Alcotest.test_case "cache: save/load; corrupt file is empty" `Quick
      test_cache_save_load;
    Alcotest.test_case "queue: priority, FIFO, yield re-queues behind" `Quick
      test_queue_ordering;
    Alcotest.test_case "per-job budget enforced (exit 3)" `Quick
      test_per_job_budget;
    Alcotest.test_case "preempt at boundary = uninterrupted (bit-identical)"
      `Quick test_preempt_resume_bit_identity;
    Alcotest.test_case "repeat submission served from cache, 0 explored"
      `Quick test_repeat_served_from_cache;
    Alcotest.test_case "every protocol x job kind runs to a verdict" `Quick
      test_every_protocol_and_kind;
    Alcotest.test_case "check job streams one line per config" `Quick
      test_on_config_streams_detail;
    Alcotest.test_case "deadline exit path (6)" `Quick test_deadline_exit;
    Alcotest.test_case "cancel exit paths" `Quick test_cancel_paths;
    Alcotest.test_case "crash mid-job salvaged to the fault-free result"
      `Quick test_crash_mid_job_salvage;
    Alcotest.test_case "daemon --once drains a spool" `Quick
      test_daemon_once_drains_spool;
  ]
