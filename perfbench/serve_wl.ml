(* serve-mix: an open loop of verification jobs into Serve.Pool, as the
   daemon runs them after a restart. One worker, the daemon's 50k-state
   quantum, a fixed offered rate below saturation. Jobs are generated
   from the seed, rendered with Spec.to_line and read back with
   Spec.parse, as the daemon reads spool files. *)

module M = Perfbench_measure.Measure
module H = Harness
module S = Serve.Spec
module Pool = Serve.Pool
module Runner = Serve.Runner
module Cache = Serve.Cache

let quantum = 50_000
let rate = 5.0  (* jobs offered per second *)
let jobs = 100
let drain_bound_s = 60.0
let fuzz_attempts = 10
let hunt_attempts = 60

let protos = S.[ Mutex; Cmp_mutex; Consensus; Election; Renaming; Ccp ]
let reductions = Check.Explore.[ Full; Canon ]

let fuzz ~seed p = S.make ~attempts:fuzz_attempts ~seed S.Fuzz p
let hunt ~seed p = S.make ~attempts:hunt_attempts ~seed S.Hunt p

(* What the daemon served before the restart: short Fig 1 and
   cmp-mutex checks and one small fuzz and hunt job per protocol. *)
let corpus =
  List.concat_map
    (fun reduction ->
      [ S.make ~m:2 ~reduction S.Check S.Mutex; S.make ~m:3 ~reduction S.Check S.Cmp_mutex ])
    reductions
  @ List.map (fuzz ~seed:1) protos
  @ List.map (hunt ~seed:1) protos

(* The theorem table: Fig 1 fails for even m and for n = 3, m = 3;
   every other job of the mix passes. *)
let expected (s : S.t) =
  match (s.S.kind, s.S.proto) with
  | S.Check, S.Mutex when s.S.m mod 2 = 0 || (s.S.n = 3 && s.S.m = 3) -> Runner.Violation
  | _ -> Runner.Pass

(* The job sequence: 100 arrival slots, one every 0.2 s. Every slot
   holds the same class of job for every seed, so each seed offers the
   same work at the same times: the expensive checks sit at fixed slots
   spread over the run, each default-size check is repeated 50 slots
   (10 s) after its original, so the repeat finds it finished, and the
   light jobs fill the remaining slots in a fixed rotation. The seed
   picks the fuzz and hunt seeds and which corpus jobs are repeated. *)
let heavy =
  let n3 r = S.make ~n:3 ~m:3 ~reduction:r S.Check S.Mutex in
  let m4 r = S.make ~m:4 ~reduction:r S.Check S.Mutex in
  (* (slot of the original, slot of its repeat, spec) *)
  Check.Explore.
    [ (15, 65, m4 Canon); (25, 75, m4 Full); (45, 95, n3 Canon) ]

(* The full Fig 1 n=3 m=3 check, whose slices are the longest, is the
   last arrival: it yields and resumes at every quantum, and the run ends
   when it finishes. *)
let last = S.make ~n:3 ~m:3 S.Check S.Mutex

let default_slots = [ 1; 4; 8; 12; 18; 22; 28; 32; 36; 40; 44; 48 ]

let generate ~seed =
  let rng = Random.State.make [| seed |] in
  let slots = Array.make jobs None in
  List.iter
    (fun (i, j, s) ->
      slots.(i) <- Some s;
      slots.(j) <- Some s)
    heavy;
  slots.(jobs - 1) <- Some last;
  List.iteri
    (fun k i ->
      let s =
        S.make ~reduction:(List.nth reductions (k mod 2)) S.Check
          (List.nth protos (k / 2))
      in
      slots.(i) <- Some s;
      slots.(i + 50) <- Some s)
    default_slots;
  let fresh_seed () = 2 + Random.State.int rng 1_000_000 in
  List.iteri
    (fun k i ->
      (* fuzz, hunt, corpus repeat, in turn; the protocols rotate *)
      let p = List.nth protos (k / 3 mod List.length protos) in
      slots.(i) <-
        Some
          (match k mod 3 with
          | 0 -> fuzz ~seed:(fresh_seed ()) p
          | 1 -> hunt ~seed:(fresh_seed ()) p
          | _ -> List.nth corpus (Random.State.int rng (List.length corpus))))
    (List.filter (fun i -> slots.(i) = None) (List.init jobs Fun.id));
  (* the program only sees the specs' text *)
  List.map
    (fun s ->
      let line = S.to_line (Option.get s) in
      match S.parse line with
      | Ok s -> s
      | Error e -> H.fail "spec %S does not parse back: %s" line e)
    (Array.to_list slots)

(* ---------------------------------------------------------------- *)
(* set-up: warm a cache, persist it, load it as a restarted daemon   *)
(* ---------------------------------------------------------------- *)

type warm = { cache : Cache.t; path : string; save_s : float; load_s : float }

let warm ~tmp k =
  let dir = H.fresh_dir tmp (Printf.sprintf "warm-%d" k) in
  let pool = Pool.create ~quantum ~state_dir:(Filename.concat dir "state") () in
  List.iter (fun s -> ignore (Pool.submit pool (Result.get_ok (S.parse (S.to_line s))))) corpus;
  Pool.drain pool;
  List.iter
    (fun (j : Pool.job) ->
      match j.Pool.status with
      | Pool.Finished o when o.Runner.verdict = expected j.Pool.spec -> ()
      | _ -> H.fail "corpus job %s did not finish as expected" (S.ident j.Pool.spec))
    (Pool.jobs pool);
  let path = Filename.concat tmp (Printf.sprintf "cache-%d.bin" k) in
  let t0 = M.now () in
  Cache.save (Pool.cache pool) ~path;
  let t1 = M.now () in
  let cache = Cache.load ~path in
  let t2 = M.now () in
  H.rm_rf dir;
  if Cache.length cache <> Cache.length (Pool.cache pool) then
    H.fail "reloaded cache holds %d entries, want %d" (Cache.length cache)
      (Cache.length (Pool.cache pool));
  { cache; path; save_s = t1 -. t0; load_s = t2 -. t1 }

(* ---------------------------------------------------------------- *)
(* the timed open loop                                               *)
(* ---------------------------------------------------------------- *)

type track = {
  spec : S.t;
  due : float;
  mutable submitted : float;
  mutable started : float;  (* first slice; nan until then *)
  mutable finished : float;  (* nan until terminal *)
}

type pass = {
  tracks : track array;
  pool : Pool.t;
  window_s : float;  (* first due arrival to last job finished *)
  busy_s : float;  (* inside Pool.step *)
  explore_busy_s : float;  (* inside steps that explored fresh states *)
  step_words : float;
  yields : (string * int) list;  (* snapshot file, bytes, per preemption *)
}

let run_pass r ~tmp ~name ~cache specs =
  let dir = H.fresh_dir tmp name in
  let pool = Pool.create ~quantum ~cache ~state_dir:(Filename.concat dir "state") () in
  let n = List.length specs in
  let t0 = M.now () +. 0.01 in
  let tracks =
    Array.of_list
      (List.mapi
         (fun i spec ->
           { spec; due = t0 +. (float i /. rate); submitted = nan; started = nan; finished = nan })
         specs)
  in
  let ids = Hashtbl.create n in
  let next = ref 0 in
  let busy = ref 0.0 and explore_busy = ref 0.0 and words = ref 0.0 in
  let yields = ref [] in
  let deadline = tracks.(n - 1).due +. drain_bound_s in
  while !next < n || Pool.pending pool > 0 do
    let now = M.now () in
    if now > deadline then
      H.fail "%d job(s) still pending %.0f s after the last arrival" (Pool.pending pool)
        drain_bound_s;
    while !next < n && tracks.(!next).due <= now do
      let tr = tracks.(!next) in
      Hashtbl.replace ids (Pool.submit pool tr.spec) tr;
      tr.submitted <- M.now ();
      incr next
    done;
    match Pool.runnable pool with
    | id :: _ ->
      let tr = Hashtbl.find ids id in
      let before = Pool.explored pool in
      let a0 = M.alloc_now () in
      let s0 = M.now () in
      if Float.is_nan tr.started then tr.started <- s0;
      ignore (M.with_span r ~op:id "pool.step" (fun () -> Pool.step pool));
      let s1 = M.now () in
      words := !words +. M.allocated ~before:a0 ~after:(M.alloc_now ());
      busy := !busy +. (s1 -. s0);
      if Pool.explored pool > before then explore_busy := !explore_busy +. (s1 -. s0);
      let j = Option.get (Pool.job pool id) in
      (match j.Pool.status with
      | Pool.Finished _ | Pool.Crashed _ | Pool.Cancelled -> tr.finished <- s1
      | Pool.Yielded ->
        if r.M.on && Sys.file_exists j.Pool.snapshot then begin
          (* a preemption left a checkpoint: keep a copy to replay its
             read after the pass, outside the timed loop *)
          let copy = Filename.concat dir (Printf.sprintf "yield-%d.snap" (List.length !yields)) in
          let ic = open_in_bin j.Pool.snapshot in
          let data = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Out_channel.with_open_bin copy (fun oc -> output_string oc data);
          yields := (copy, String.length data) :: !yields
        end
      | Pool.Queued -> ())
    | [] -> if !next < n then Unix.sleepf (Float.max 0.0 (tracks.(!next).due -. M.now ()))
  done;
  let last = Array.fold_left (fun a tr -> Float.max a tr.finished) 0.0 tracks in
  List.iter
    (fun (path, _) ->
      for _ = 1 to 5 do
        M.with_span r ~count:(fun _ -> 1) "snapshot.read" (fun () ->
            ignore (Check.Snapshot.read ~path))
      done)
    !yields;
  H.rm_rf dir;
  {
    tracks;
    pool;
    window_s = last -. t0;
    busy_s = !busy;
    explore_busy_s = !explore_busy;
    step_words = !words;
    yields = List.rev !yields;
  }

(* Output checks: each verdict matches the theorem table, and a job whose
   spec had already completed (in the corpus or earlier in the run) when
   it started is served from the cache with nothing explored. *)
let failures p =
  let bad = ref 0 in
  List.iter
    (fun (j : Pool.job) ->
      let tr = p.tracks.(j.Pool.id) in
      let ok =
        match j.Pool.status with
        | Pool.Finished o ->
          let repeat =
            (* an earlier, finished job with the same spec *)
            Array.exists
              (fun other ->
                other != tr && S.ident other.spec = S.ident tr.spec && other.finished <= tr.started)
              p.tracks
            || List.exists (fun s -> S.ident s = S.ident tr.spec) corpus
          in
          o.Runner.verdict = expected j.Pool.spec
          && ((not repeat) || (o.Runner.explored = 0 && o.Runner.cached_configs = o.Runner.configs))
        | _ -> false
      in
      if not ok then begin
        incr bad;
        H.log "serve-mix: job %d (%s) failed its check" j.Pool.id (S.ident j.Pool.spec)
      end)
    (Pool.jobs p.pool);
  !bad

(* Latency of every job, from its due time to its verdict. *)
let latencies p = List.map (fun tr -> 1e3 *. (tr.finished -. tr.due)) (Array.to_list p.tracks)

let run ~tmp ~seed ~trace =
  let specs = generate ~seed in
  let k = ref 0 in
  let setup =
    H.setup ~reps:3 (fun () ->
        incr k;
        warm ~tmp !k)
  in
  let w = H.value setup in
  let off = M.recorder ~on:false in
  let explored p = float (Pool.explored p.pool) in
  if not trace then begin
    Gc.compact ();
    let p = run_pass off ~tmp ~name:"pool" ~cache:w.cache specs in
    let peak_rss_mb = H.peak_rss_mb () in
    H.setup_round setup;
    {
      H.attempted = jobs;
      failed = failures p;
      correct = true;
      e2e =
        [
          ("setup_s", H.setup_s setup);
          ("verdict_s", p.busy_s);
          ("states_per_s", explored p /. p.explore_busy_s);
          ("peak_rss_mb", peak_rss_mb);
          ("words_per_state", p.step_words /. explored p);
        ];
      layer = [];
      spans = [];
    }
  end
  else begin
    let plain name =
      Gc.compact ();
      run_pass off ~tmp ~name ~cache:(Cache.load ~path:w.path) specs
    in
    let before = plain "before" in
    Gc.compact ();
    let r = M.recorder ~on:true in
    let mark = H.gc_mark () in
    let p = run_pass r ~tmp ~name:"traced" ~cache:(Cache.load ~path:w.path) specs in
    let gc = H.gc_layer mark in
    let after = plain "after" in
    let jobs_of = Pool.jobs p.pool in
    let pct ~p xs = Option.value ~default:0.0 (M.percentile ~p xs) in
    let ms_of f = List.map (fun tr -> 1e3 *. f tr) (Array.to_list p.tracks) in
    let service kind =
      List.filter_map
        (fun (j : Pool.job) -> if j.Pool.spec.S.kind = kind then Some (1e3 *. j.Pool.ran_s) else None)
        jobs_of
    in
    let cache = Pool.cache p.pool in
    let lookups = float (Cache.hits cache + Cache.misses cache) in
    let read_ms =
      List.filter_map
        (fun s -> if s.M.name = "snapshot.read" then Some (1e3 *. (s.M.t1 -. s.M.t0)) else None)
        r.M.spans
    in
    let failed = failures before + failures p + failures after in
    let nyields = List.length p.yields in
    let plain_lat = latencies before @ latencies after in
    let warms = setup.H.results in
    {
      H.attempted = 3 * jobs;
      failed;
      correct = true;
      e2e = [];
      spans = r.M.spans;
      layer =
        gc
        @ [
            ("snapshot.yields", float nyields);
            ( "snapshot.bytes_per_yield",
              M.ratio (float (List.fold_left (fun a (_, b) -> a + b) 0 p.yields)) (float nyields) );
            ("snapshot.read_ms_p50", pct ~p:0.5 read_ms);
            ("pool.busy_frac", p.busy_s /. p.window_s);
            ("pool.queue_ms_p50", pct ~p:0.5 (ms_of (fun tr -> tr.started -. tr.due)));
            ("pool.queue_ms_p90", pct ~p:0.9 (ms_of (fun tr -> tr.started -. tr.due)));
            ("pool.service_ms_p90", pct ~p:0.9 (List.map (fun (j : Pool.job) -> 1e3 *. j.Pool.ran_s) jobs_of));
            ( "pool.slices_per_job",
              H.mean (List.map (fun (j : Pool.job) -> float j.Pool.slices) jobs_of) );
            ( "pool.recoveries",
              float (List.fold_left (fun a (j : Pool.job) -> a + j.Pool.recoveries) 0 jobs_of) );
            ( "gen.lag_ms_max",
              1e3 *. Array.fold_left (fun a tr -> Float.max a (tr.submitted -. tr.due)) 0.0 p.tracks );
            ("cache.hit_ratio", M.ratio (float (Cache.hits cache)) lookups);
            ("cache.collisions", float (Cache.collisions cache));
            ("cache.load_s", M.median (List.map (fun w -> w.load_s) warms));
            ("cache.save_s", M.median (List.map (fun w -> w.save_s) warms));
            ("runner.check_ms_p50", pct ~p:0.5 (service S.Check));
            ("runner.fuzz_ms_p50", pct ~p:0.5 (service S.Fuzz));
            ("runner.hunt_ms_p50", pct ~p:0.5 (service S.Hunt));
            ("latency_ms_p50", pct ~p:0.5 plain_lat);
            ("latency_ms_p90", pct ~p:0.9 plain_lat);
            ("latency.samples", float (List.length plain_lat));
            ( "trace.overhead_frac",
              H.overhead ~traced:p.busy_s ~before:before.busy_s ~after:after.busy_s );
          ];
    }
  end
