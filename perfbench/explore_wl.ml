(* The three exploration workloads: Thm 3.1's naming sweep, the S3
   quotient of Fig 1 at n=3 m=5, and Fig 1 at n=3 m=3 through the
   disk-backed visited set. Each drives Check.Explore from outside; the
   traced run splits the explorer by replaying its layers over the
   states it just explored. *)

open Anonmem
module M = Perfbench_measure.Measure
module H = Harness
module P = Coord.Amutex.P
module E = Check.Explore.Make (P)
module Cd = Check.Codec.Make (P)
module Cn = Check.Canon.Make (P)
module St = Check.Checker_stats

let ids n = Array.init n (fun i -> ((i + 1) * 17) + 1)

let config ~n namings : E.config =
  { E.ids = ids n; inputs = Array.make n (); namings }

let identity_config ~n ~m = config ~n (Array.init n (fun _ -> Naming.identity m))

(* [coordctl check mutex -m M]'s sweep: every relative naming, n = 2. *)
let sweep m =
  List.map (fun nm -> config ~n:2 [| Naming.identity m; nm |]) (Naming.all m)

(* ---------------------------------------------------------------- *)
(* layer replays                                                     *)
(* ---------------------------------------------------------------- *)

let chunk = 4096

(* The explorer's raw-successor memo, mirrored for the canon replay. *)
let canon_memo_cap = 1 lsl 20

(* Replay, as child spans of the current span, the per-state work the
   explorer did for [states]: successor generation, then key encoding
   (Full) or canonicalization (Canon) of every candidate successor. *)
let replay_expand r ~op ~reduction (cfg : E.config) (states : E.state array) =
  let codec = Cd.create () in
  let canon =
    match reduction with
    | Check.Explore.Full -> None
    | Check.Explore.Canon ->
      let syms = Cn.group ~ids:cfg.ids ~inputs:cfg.inputs ~namings:cfg.namings in
      let inc =
        Cn.make_ctx ~syms ~value_code:(Cd.value_code codec)
          ~local_code:(Cd.local_code codec) ~pack:(Cd.key_of_codes codec)
          ~init:(states.(0).E.mem, states.(0).E.locals)
      in
      Some (inc, Hashtbl.create 4096)
  in
  let n = Array.length states in
  let i = ref 0 in
  while !i < n do
    let base = !i and len = min chunk (n - !i) in
    let succs =
      M.with_span r ~op ~count:(fun _ -> len) "successors" (fun () ->
          Array.init len (fun k -> E.successors cfg states.(base + k)))
    in
    let cands =
      Array.concat (Array.to_list (Array.map (fun l -> Array.of_list (List.map snd l)) succs))
    in
    let count _ = Array.length cands in
    (match canon with
    | None ->
      M.with_span r ~op ~count "codec" (fun () ->
          Array.iter (fun (s : E.state) -> ignore (Cd.encode codec s.mem s.locals)) cands)
    | Some (inc, memo) ->
      let codes =
        Array.map
          (fun (s : E.state) ->
            (Array.map (Cd.value_code codec) s.mem, Array.map (Cd.local_code codec) s.locals))
          cands
      in
      M.with_span r ~op ~count "codec" (fun () ->
          Array.iter (fun (vc, lc) -> ignore (Cd.key_of_codes codec vc lc)) codes);
      M.with_span r ~op ~count "canon" (fun () ->
          Array.iter
            (fun (s : E.state) ->
              let raw = Cn.state_key inc s.mem s.locals in
              if not (Hashtbl.mem memo raw) then begin
                let mem, locals, key, orbit = Cn.canonize_keyed inc ~raw s.mem s.locals in
                if Hashtbl.length memo >= canon_memo_cap then Hashtbl.reset memo;
                Hashtbl.add memo raw ((mem, locals), key, orbit)
              end)
            cands));
    i := !i + len
  done

(* Live heap words, after a full collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Layer figures common to the exploration workloads, from the traced
   pass's spans and the explorer's own statistics. *)
let explore_layer ~spans ~(stats : St.t list) ~canon =
  let tot = M.totals spans in
  let t = M.total tot in
  let states = float (List.fold_left (fun a s -> a + s.St.n_states) 0 stats) in
  let cands = float (List.fold_left (fun a s -> a + s.St.candidates) 0 stats) in
  let dedup = float (List.fold_left (fun a s -> a + s.St.dedup_hits) 0 stats) in
  let ns x = 1e9 *. x in
  let per_item name f = M.ratio (f (t name)) (float (t name).M.items) in
  let explore = t "explore" in
  let replayed = (t "successors").M.dur_s +. (t (if canon then "canon" else "codec")).M.dur_s in
  [
    ("successors.ns_per_state", ns (per_item "successors" (fun x -> x.M.dur_s)));
    ("successors.words_per_state", per_item "successors" (fun x -> x.M.alloc_words));
    ("codec.ns_per_key", ns (per_item "codec" (fun x -> x.M.dur_s)));
    ("codec.words_per_key", per_item "codec" (fun x -> x.M.alloc_words));
    ("explore.busy_s", explore.M.dur_s);
    ("explore.dedup_ratio", M.ratio dedup cands);
    ("explore.words_per_state", M.ratio explore.M.alloc_words states);
    ("explore.residual_ns_per_state", ns (M.ratio (explore.M.dur_s -. replayed) states));
  ]
  @
  if canon then
    let hits = float (List.fold_left (fun a s -> a + s.St.canon_hits) 0 stats) in
    let pruned = float (List.fold_left (fun a s -> a + s.St.sig_pruned) 0 stats) in
    [
      ("canon.ns_per_candidate", ns (per_item "canon" (fun x -> x.M.dur_s)));
      ("canon.words_per_candidate", per_item "canon" (fun x -> x.M.alloc_words));
      ("canon.memo_hit_ratio", M.ratio hits cands);
      ("canon.pruned_per_candidate", M.ratio pruned cands);
    ]
  else []

(* ---------------------------------------------------------------- *)
(* thm31-sweep                                                       *)
(* ---------------------------------------------------------------- *)

let thm31_states = 2_404_876
let thm31_df_violations = 26

type judged = {
  m : int;
  stats : St.t;
  explore_s : float;
  explore_words : float;
  latency_s : float;
  started : float;
  ended : float;
  me_ok : bool;
  df_ok : bool;
}

(* One configuration as [coordctl check mutex] judges it: explore, then
   mutual exclusion and deadlock freedom on the flat graph. *)
let judge r ~op ~m cfg =
  let t0 = M.now () in
  let a0 = M.alloc_now () in
  let g, st =
    M.with_span r ~op ~count:(fun (_, st) -> st.St.n_states) "explore" (fun () ->
        E.explore_with_stats ~reduction:Check.Explore.Full cfg)
  in
  let a1 = M.alloc_now () in
  let t1 = M.now () in
  let states _ = st.St.n_states in
  let f = M.with_span r ~op ~count:states "to_flat" (fun () -> E.to_flat g) in
  let me =
    M.with_span r ~op ~count:states "mutex_props.me" (fun () ->
        Check.Mutex_props.mutual_exclusion f)
  in
  let df =
    M.with_span r ~op ~count:states "mutex_props.df" (fun () ->
        Check.Mutex_props.deadlock_freedom f)
  in
  let t2 = M.now () in
  ( g,
    {
      m;
      stats = st;
      explore_s = t1 -. t0;
      explore_words = M.allocated ~before:a0 ~after:a1;
      latency_s = t2 -. t0;
      started = t0;
      ended = t2;
      me_ok = me = None;
      df_ok = df = None;
    } )

let thm31_configs () =
  List.concat_map (fun m -> List.map (fun c -> (m, c)) (sweep m)) [ 2; 3; 4; 5 ]

(* Thm 3.1: deadlock freedom fails exactly for even m; ME always holds. *)
let config_ok j = j.me_ok && j.df_ok = (j.m mod 2 = 1)

(* A pass calls [between] before every [setup_every]-th configuration
   after the first, to spread the set-up rounds over the run. *)
let setup_every = 38

let thm31_pass r ~replay ?(between = ignore) cfgs =
  List.mapi
    (fun op (m, cfg) ->
      if op > 0 && op mod setup_every = 0 then between ();
      let g, j = M.with_span r ~op "config" (fun () -> judge r ~op ~m cfg) in
      if replay then
        M.with_span r ~op "replay" (fun () ->
            replay_expand r ~op ~reduction:Check.Explore.Full cfg g.E.states);
      j)
    cfgs

let thm31_check js =
  let states = List.fold_left (fun a j -> a + j.stats.St.n_states) 0 js in
  let dfv = List.length (List.filter (fun j -> not j.df_ok) js) in
  let mev = List.length (List.filter (fun j -> not j.me_ok) js) in
  let ok = states = thm31_states && dfv = thm31_df_violations && mev = 0 in
  if not ok then
    H.log "thm31-sweep: %d states, %d DF and %d ME violations (want %d, %d, 0)"
      states dfv mev thm31_states thm31_df_violations;
  ok

(* A pass's configurations in order, grouped into segments of at least
   [segment_states] states (43 per pass, a tenth of a second each on the
   development host), each with the time [time] gives its
   configurations, restated at the host's nominal speed. The run's pace
   is the median over segments, not passes, so that it samples the host
   through the run. *)
let segment_states = 50_000

let thm31_segments time js =
  M.segments ~min_work:(float segment_states)
    (List.map
       (fun j -> (float j.stats.St.n_states, H.adjust ~t0:j.started ~t1:j.ended (time j)))
       js)

let thm31_setup () =
  (* configurations with their fingerprints, and a warm-up judging of the
     m = 3 sweep and the first m = 4 namings *)
  let cfgs = thm31_configs () in
  List.iter (fun (_, c) -> ignore (E.fingerprint ~reduction:Check.Explore.Full c)) cfgs;
  let r = M.recorder ~on:false in
  List.iteri
    (fun op (m, c) -> ignore (judge r ~op ~m c))
    (List.filteri (fun i (m, _) -> m = 3 || (m = 4 && i < 14)) cfgs);
  cfgs

let thm31 ~seconds ~trace =
  let setup = H.setup ~reps:2 thm31_setup in
  let cfgs = H.value setup in
  let off = M.recorder ~on:false in
  if not trace then begin
    let between () = H.setup_round setup in
    let runs, peak_rss_mb =
      H.passes ~seconds ~nominal_s:10.0 ~setup (fun _ ->
          thm31_pass off ~replay:false ~between cfgs)
    in
    let js = List.concat runs in
    let failed = List.length (List.filter (fun j -> not (config_ok j)) js) in
    let states = List.fold_left (fun a j -> a + j.stats.St.n_states) 0 js in
    let pace time = M.median_rate (List.concat_map (thm31_segments time) runs) in
    {
      H.attempted = List.length js;
      failed;
      correct = List.for_all thm31_check runs;
      e2e =
        [
          ("setup_s", H.setup_s setup);
          ("verdict_s", float thm31_states /. pace (fun j -> j.latency_s));
          ("states_per_s", pace (fun j -> j.explore_s));
          ("peak_rss_mb", peak_rss_mb);
          ( "words_per_state",
            M.sum (List.map (fun j -> j.explore_words) js) /. float states );
        ];
      layer = [];
      spans = [];
    }
  end
  else begin
    let plain () =
      Gc.compact ();
      thm31_pass off ~replay:false cfgs
    in
    let before = plain () in
    Gc.compact ();
    let r = M.recorder ~on:true in
    let mark = H.gc_mark () in
    let js = thm31_pass r ~replay:true cfgs in
    let gc = H.gc_layer mark in
    let after = plain () in
    let spans = r.M.spans in
    let verdict js = M.sum (List.map (fun j -> j.latency_s) js) in
    let tot = M.totals spans in
    let per_state name = M.ratio (M.total tot name).M.dur_s (float (M.total tot name).M.items) in
    let lat = List.map (fun j -> 1e3 *. j.latency_s) (before @ after) in
    let pct p = Option.value ~default:0.0 (M.percentile ~p lat) in
    (* live bytes per stored state of one m = 5 graph *)
    let bytes_per_state =
      let m, c = List.nth cfgs (List.length cfgs - 1) in
      let before = live_words () in
      let g, _ = judge off ~op:0 ~m c in
      let after = live_words () in
      let b = float ((after - before) * (Sys.word_size / 8)) /. float (Array.length g.E.states) in
      ignore (Sys.opaque_identity g);
      b
    in
    let failed = List.length (List.filter (fun j -> not (config_ok j)) (before @ js @ after)) in
    {
      H.attempted = List.length before + List.length js + List.length after;
      failed;
      correct = List.for_all thm31_check [ before; js; after ];
      e2e = [];
      spans;
      layer =
        explore_layer ~spans ~stats:(List.map (fun j -> j.stats) js) ~canon:false
        @ gc
        @ [
            ("explore.bytes_per_state", bytes_per_state);
            ("to_flat.ns_per_state", 1e9 *. per_state "to_flat");
            ( "to_flat.words_per_state",
              M.ratio (M.total tot "to_flat").M.alloc_words
                (float (M.total tot "to_flat").M.items) );
            ("mutex_props.me_ns_per_state", 1e9 *. per_state "mutex_props.me");
            ("mutex_props.df_ns_per_state", 1e9 *. per_state "mutex_props.df");
            ("latency_ms_p50", pct 0.5);
            ("latency_ms_p90", pct 0.9);
            ("latency.samples", float (List.length lat));
            ( "trace.overhead_frac",
              H.overhead ~traced:(verdict js) ~before:(verdict before) ~after:(verdict after) );
          ];
    }
  end

(* ---------------------------------------------------------------- *)
(* amutex-m5-n3-canon                                                *)
(* ---------------------------------------------------------------- *)

let canon_states = 1_410_086
let canon_orbit_sum = 8_436_641

type explored = {
  st : St.t;
  wall_s : float;
  started : float;
  words : float;
}

let timed_explore r f =
  let a0 = M.alloc_now () in
  let t0 = M.now () in
  let v, st = M.with_span r ~op:0 ~count:(fun (_, st) -> st.St.n_states) "explore" f in
  let t1 = M.now () in
  let a1 = M.alloc_now () in
  (v, { st; wall_s = t1 -. t0; started = t0; words = M.allocated ~before:a0 ~after:a1 })

(* [pace] turns the passes, each a segment of (states, seconds at the
   host's nominal speed), into the run's pace; [verdict_s] is one pass at
   that pace. *)
let explore_e2e ~pace ~setup (xs, peak_rss_mb) =
  let states = List.fold_left (fun a x -> a + x.st.St.n_states) 0 xs in
  let pace =
    pace
      (List.map
         (fun x ->
           (float x.st.St.n_states, H.adjust ~t0:x.started ~t1:(x.started +. x.wall_s) x.wall_s))
         xs)
  in
  [
    ("setup_s", H.setup_s setup);
    ("verdict_s", float (List.hd xs).st.St.n_states /. pace);
    ("states_per_s", pace);
    ("peak_rss_mb", peak_rss_mb);
    ("words_per_state", M.sum (List.map (fun x -> x.words) xs) /. float states);
  ]

let canon_cfg () = identity_config ~n:3 ~m:5

let canon_ok x =
  let ok =
    x.st.St.complete && x.st.St.n_states = canon_states
    && x.st.St.orbit_sum = canon_orbit_sum
  in
  if not ok then
    H.log "amutex-m5-n3-canon: %d states, orbit sum %d (want %d, %d)"
      x.st.St.n_states x.st.St.orbit_sum canon_states canon_orbit_sum;
  ok

let canon_setup () =
  (* the configuration and its group, and a warm-up quotient run *)
  let cfg = canon_cfg () in
  ignore (Cn.group ~ids:cfg.ids ~inputs:cfg.inputs ~namings:cfg.namings);
  ignore (E.explore_with_stats ~reduction:Check.Explore.Canon (identity_config ~n:3 ~m:3));
  cfg

let canon_run r cfg =
  timed_explore r (fun () -> E.explore_with_stats ~reduction:Check.Explore.Canon cfg)

let canon ~seconds ~trace =
  let setup = H.setup ~reps:4 canon_setup in
  let cfg = H.value setup in
  let off = M.recorder ~on:false in
  if not trace then begin
    (* the first pass pays for touching a fresh ~840 MB heap and the
       second reuses it, so the pace counts both *)
    let xs = H.passes ~seconds ~nominal_s:10.0 ~setup (fun _ -> snd (canon_run off cfg)) in
    let failed = List.length (List.filter (fun x -> not (canon_ok x)) (fst xs)) in
    { H.attempted = List.length (fst xs); failed; correct = failed = 0;
      e2e = explore_e2e ~pace:M.overall_rate ~setup xs; layer = []; spans = [] }
  end
  else begin
    let plain () =
      Gc.compact ();
      snd (canon_run off cfg)
    in
    let before = plain () in
    Gc.compact ();
    let r = M.recorder ~on:true in
    let mark = H.gc_mark () in
    let x, gc, live =
      let w0 = live_words () in
      let g, x = canon_run r cfg in
      let w1 = live_words () in
      let gc = H.gc_layer mark in
      M.with_span r ~op:0 "replay" (fun () ->
          replay_expand r ~op:0 ~reduction:Check.Explore.Canon cfg g.E.states);
      (x, gc, w1 - w0)
    in
    let after = plain () in
    let failed = List.length (List.filter (fun x -> not (canon_ok x)) [ before; x; after ]) in
    {
      H.attempted = 3;
      failed;
      correct = failed = 0;
      e2e = [];
      spans = r.M.spans;
      layer =
        explore_layer ~spans:r.M.spans ~stats:[ x.st ] ~canon:true
        @ gc
        @ [
            ( "explore.bytes_per_state",
              float (live * (Sys.word_size / 8)) /. float x.st.St.n_states );
            ( "trace.overhead_frac",
              H.overhead ~traced:x.wall_s ~before:before.wall_s ~after:after.wall_s );
          ];
    }
  end

(* ---------------------------------------------------------------- *)
(* amutex-m3-n3-disk                                                 *)
(* ---------------------------------------------------------------- *)

let disk_states = 227_160

(* A hot-table cap that forces five spills, and a checkpoint every
   50,000 new states. *)
let hot_cap = 40_000
let snapshot_every = 50_000

let disk_cfg () = identity_config ~n:3 ~m:3

let run_bytes dir =
  Array.fold_left
    (fun a f -> if Filename.check_suffix f ".run" then a + H.file_size (Filename.concat dir f) else a)
    0 (Sys.readdir dir)

let disk_run r ~tmp ~name ?(hot_cap = hot_cap) cfg =
  let dir = H.fresh_dir tmp name in
  let snap = Filename.concat tmp (name ^ ".snap") in
  let (), x =
    timed_explore r (fun () ->
        ( (),
          E.explore_external ~reduction:Check.Explore.Full ~hot_cap ~snapshot_every
            ~snapshot_to:snap ~dir cfg ))
  in
  (x, dir, snap)

let disk_ok x =
  let ok = x.st.St.complete && x.st.St.n_states = disk_states && x.st.St.spilled_runs >= 2 in
  if not ok then
    H.log "amutex-m3-n3-disk: %d states in %d runs (want %d, several runs)"
      x.st.St.n_states x.st.St.spilled_runs disk_states;
  ok

let disk_setup ~tmp () =
  (* the configuration, and a warm-up external run of n=2 m=5 *)
  let cfg = disk_cfg () in
  ignore (E.external_fingerprint ~reduction:Check.Explore.Full cfg);
  let _, dir, snap =
    disk_run (M.recorder ~on:false) ~tmp ~name:"warm" ~hot_cap:5_000 (identity_config ~n:2 ~m:5)
  in
  H.rm_rf dir;
  H.rm_rf snap;
  cfg

(* Replays of the visited set's two operations on this workload's own
   keys: spill the stored states' keys as runs of [hot_cap] sorted keys,
   then probe every candidate key against them in sorted batches. *)
let replay_disk r ~tmp (g : E.graph) =
  let codec = Cd.create () in
  let keys = Array.map (fun (s : E.state) -> Cd.encode codec s.mem s.locals) g.E.states in
  let cands =
    Array.concat
      (Array.to_list
         (Array.map
            (fun s -> Array.of_list (List.map (fun (_, (c : E.state)) -> Cd.encode codec c.mem c.locals) (E.successors g.E.cfg s)))
            g.E.states))
  in
  let dir = H.fresh_dir tmp "replay-disk" in
  let fingerprint, descr = E.external_fingerprint ~reduction:Check.Explore.Full g.E.cfg in
  let store = Check.Disk_visited.create ~dir ~key_len:(String.length keys.(0)) () in
  let n = Array.length keys in
  let i = ref 0 in
  while !i < n do
    let run = Array.sub keys !i (min hot_cap (n - !i)) in
    Array.sort compare run;
    M.with_span r ~count:(fun _ -> Array.length run) "disk.spill" (fun () ->
        Check.Disk_visited.spill store ~fingerprint ~descr run);
    i := !i + Array.length run
  done;
  let batch = 10_000 in
  let nc = Array.length cands in
  let i = ref 0 in
  let found = ref 0 and probed = ref 0 in
  while !i < nc do
    (* the explorer probes each generation's distinct unknown keys *)
    let b = Array.of_list (List.sort_uniq compare (Array.to_list (Array.sub cands !i (min batch (nc - !i))))) in
    let hits = M.with_span r ~count:(fun _ -> Array.length b) "disk.probe" (fun () -> Check.Disk_visited.probe store b) in
    Array.iter (fun h -> if h then incr found) hits;
    probed := !probed + Array.length b;
    i := !i + batch
  done;
  H.rm_rf dir;
  (* every candidate is a reachable state, so every probe must hit *)
  !found = !probed

let disk ~tmp ~seconds ~trace =
  let setup = H.setup ~reps:2 (disk_setup ~tmp) in
  let cfg = H.value setup in
  let off = M.recorder ~on:false in
  if not trace then begin
    let xs =
      H.passes ~seconds ~nominal_s:2.5 ~setup (fun k ->
          let x, dir, snap = disk_run off ~tmp ~name:(Printf.sprintf "pass-%d" k) cfg in
          H.rm_rf dir;
          H.rm_rf snap;
          x)
    in
    let failed = List.length (List.filter (fun x -> not (disk_ok x)) (fst xs)) in
    { H.attempted = List.length (fst xs); failed; correct = failed = 0;
      e2e = explore_e2e ~pace:M.median_rate ~setup xs; layer = []; spans = [] }
  end
  else begin
    let plain name =
      Gc.compact ();
      let x, dir, snap = disk_run off ~tmp ~name cfg in
      H.rm_rf dir;
      H.rm_rf snap;
      x
    in
    let before = plain "before" in
    Gc.compact ();
    let r = M.recorder ~on:true in
    let mark = H.gc_mark () in
    let x, dir, snap = disk_run r ~tmp ~name:"traced" cfg in
    let gc = H.gc_layer mark in
    let after = plain "after" in
    let bytes = run_bytes dir in
    (* the in-RAM graph of the same configuration feeds the replays *)
    let g = E.explore ~reduction:Check.Explore.Full cfg in
    M.with_span r ~op:0 "replay" (fun () ->
        replay_expand r ~op:0 ~reduction:Check.Explore.Full cfg g.E.states);
    let probes_hit = M.with_span r ~op:0 "replay" (fun () -> replay_disk r ~tmp g) in
    let reads =
      List.init 20 (fun _ ->
          let t0 = M.now () in
          M.with_span r "snapshot.read" (fun () -> ignore (Check.Snapshot.read ~path:snap));
          1e3 *. (M.now () -. t0))
    in
    H.rm_rf dir;
    H.rm_rf snap;
    let tot = M.totals r.M.spans in
    let t = M.total tot in
    let failed =
      List.length (List.filter (fun x -> not (disk_ok x)) [ before; x; after ])
      + if probes_hit then 0 else 1
    in
    {
      H.attempted = 4;
      failed;
      correct = failed = 0;
      e2e = [];
      spans = r.M.spans;
      layer =
        explore_layer ~spans:r.M.spans ~stats:[ x.st ] ~canon:false
        @ gc
        @ [
            ("disk.runs", float x.st.St.spilled_runs);
            ("disk.probes", float x.st.St.disk_probes);
            ("disk.bytes_per_state", float bytes /. float x.st.St.n_states);
            ( "disk.spill_ms_per_run",
              1e3 *. M.ratio (t "disk.spill").M.dur_s (float (t "disk.spill").M.spans_n) );
            ( "disk.probe_ns_per_key",
              1e9 *. M.ratio (t "disk.probe").M.dur_s (float (t "disk.probe").M.items) );
            ("snapshot.read_ms_p50", Option.value ~default:0.0 (M.percentile ~p:0.5 reads));
            ( "trace.overhead_frac",
              H.overhead ~traced:x.wall_s ~before:before.wall_s ~after:after.wall_s );
          ];
    }
  end
