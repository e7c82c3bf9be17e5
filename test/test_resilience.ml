open Check

(* Self-healing exploration under injected infrastructure faults. The
   contract: a seeded fault plan is deterministic and replayable; the
   parallel explorer absorbs killed worker domains without
   changing the explored graph by a bit; [with_recovery] drives a
   checkpointing exploration through supervisor kills, allocation
   failures and torn snapshot writes to the exact fault-free result. *)

module P = Coord.Amutex.P
module E = Explore.Make (P)

let cfg () = E.config ~m:3 ~ids:[ 7; 13 ] ~inputs:[ (); () ] ()

(* [in_tmp name f]: [f tmp snap] on a fresh directory and a snapshot
   path inside it, both removed when the test ends *)
let in_tmp name f =
  Tmp.with_dir ("res-" ^ name) (fun tmp -> f tmp (Filename.concat tmp "snap"))

(* The stores the generation driver runs over: the in-RAM table inline
   (one domain) and wide (two domains, every generation wide), and the
   disk-backed set with a hot table of 8 keys, so spills and run files
   are in play from the first boundaries. [explore] runs one of them;
   the disk store returns no graph. *)
type store = Ram of int | Disk

let stores =
  [
    ("in RAM, d=1", Ram 1);
    ("in RAM, d=2 wide", Ram 2);
    ("disk, hot cap 8", Disk);
  ]

let explore store ~dir ?deadline_s ?snapshot_every ?snapshot_to ?resume_from
    ?salvage c =
  match store with
  | Ram domains ->
    let g, s =
      E.explore_with_stats ~domains ~par_threshold:0 ?deadline_s
        ?snapshot_every ?snapshot_to ?resume_from ?salvage c
    in
    (Some g, s)
  | Disk ->
    ( None,
      E.explore_external ~hot_cap:8 ~dir ?deadline_s ?snapshot_every
        ?snapshot_to ?resume_from ?salvage c )

let with_plan plan f =
  Resilience.arm plan;
  Fun.protect ~finally:Resilience.disarm f

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let check_graph tag (a : E.graph) (b : E.graph) =
  Alcotest.(check bool) (tag ^ ": same states") true (a.E.states = b.E.states);
  Alcotest.(check bool) (tag ^ ": same orbits") true (a.E.orbits = b.E.orbits);
  Alcotest.(check bool) (tag ^ ": same succs") true (a.E.succs = b.E.succs);
  Alcotest.(check bool)
    (tag ^ ": same completeness")
    true
    (a.E.complete = b.E.complete)

let check_stats tag a b =
  Alcotest.(check bool)
    (tag ^ ": stats bit-identical (mod clock)")
    true
    (Checker_stats.equal_ignoring_time a b)

(* ------------------------- plans are data ----------------------------- *)

let test_plan_determinism () =
  let p1 = Resilience.plan_of_seed ~domains:4 ~intensity:6 42 in
  let p2 = Resilience.plan_of_seed ~domains:4 ~intensity:6 42 in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check int) "intensity honored" 6 (List.length p1.Resilience.faults);
  let p3 = Resilience.plan_of_seed ~domains:4 ~intensity:6 43 in
  Alcotest.(check bool) "different seed, different plan" false (p1 = p3);
  let rendered = Format.asprintf "%a" Resilience.pp_plan p1 in
  Alcotest.(check bool) "pp names the seed" true
    (contains ~affix:"(seed 42)" rendered)

(* ---------------------- injection-point semantics --------------------- *)

let test_fire_accounting () =
  Alcotest.(check bool) "disarmed" false (Resilience.armed ());
  (* disarmed injection points are no-ops *)
  Resilience.worker_tick ~domain:0;
  Resilience.boundary_tick ();
  Alcotest.(check bool) "no phantom writes" true
    (Resilience.mutate_write "payload" = None);
  let plan =
    {
      Resilience.seed = 0;
      faults =
        [
          Resilience.Kill_domain { domain = 1; after_ticks = 2 };
          Resilience.Alloc_fail { after_boundaries = 1 };
        ];
    }
  in
  with_plan plan (fun () ->
      Alcotest.(check bool) "armed" true (Resilience.armed ());
      (* tick 1: not yet matured; other domains unaffected *)
      Resilience.worker_tick ~domain:1;
      Resilience.worker_tick ~domain:0;
      Alcotest.(check int) "nothing fired yet" 0 (Resilience.fired ());
      (match Resilience.worker_tick ~domain:1 with
      | exception Resilience.Killed { domain = 1 } -> ()
      | exception e ->
        Alcotest.failf "expected Killed d1, got %s" (Printexc.to_string e)
      | () -> Alcotest.fail "kill did not fire at its tick");
      Alcotest.(check int) "kill fired once" 1 (Resilience.fired ());
      (* faults fire at most once *)
      Resilience.worker_tick ~domain:1;
      Alcotest.(check int) "kill consumed" 1 (List.length (Resilience.pending ()));
      (match Resilience.boundary_tick () with
      | exception Out_of_memory -> ()
      | () -> Alcotest.fail "alloc fault did not fire");
      Alcotest.(check int) "both fired" 2 (Resilience.fired ());
      Alcotest.(check bool) "nothing pending" true (Resilience.pending () = []));
  Alcotest.(check bool) "disarmed again" false (Resilience.armed ())

(* [stall_tick] is the kill-free seam Prun uses: it must serve stalls but
   neither fire nor consume kill faults aimed at the explorer. *)
let test_stall_tick_ignores_kills () =
  let plan =
    {
      Resilience.seed = 0;
      faults =
        [
          Resilience.Kill_domain { domain = 0; after_ticks = 1 };
          Resilience.Stall_domain
            { domain = 0; after_ticks = 1; for_s = 0.001 };
        ];
    }
  in
  with_plan plan (fun () ->
      Resilience.stall_tick ~domain:0;
      (* the stall fired (slept), the kill did not and is still pending *)
      Alcotest.(check int) "stall fired" 1 (Resilience.fired ());
      Alcotest.(check bool) "kill survives stall_tick" true
        (List.exists
           (function Resilience.Kill_domain _ -> true | _ -> false)
           (Resilience.pending ())))

let test_mutate_write () =
  let payload = String.init 100 (fun i -> Char.chr (i land 0xff)) in
  let plan =
    {
      Resilience.seed = 0;
      faults =
        [
          Resilience.Torn_write { nth_write = 2; keep = 0.5 };
          Resilience.Flip_byte { nth_write = 3; at = 0.5 };
        ];
    }
  in
  with_plan plan (fun () ->
      Alcotest.(check bool) "write 1 unharmed" true
        (Resilience.mutate_write payload = None);
      (match Resilience.mutate_write payload with
      | Some torn ->
        Alcotest.(check int) "write 2 torn to half" 50 (String.length torn);
        Alcotest.(check string) "torn prefix preserved"
          (String.sub payload 0 50) torn
      | None -> Alcotest.fail "torn write did not fire");
      (match Resilience.mutate_write payload with
      | Some flipped ->
        Alcotest.(check int) "flip keeps length" 100 (String.length flipped);
        let diffs = ref 0 in
        String.iteri
          (fun i c -> if c <> payload.[i] then incr diffs)
          flipped;
        Alcotest.(check int) "exactly one byte flipped" 1 !diffs
      | None -> Alcotest.fail "flip did not fire");
      Alcotest.(check bool) "write 4 unharmed" true
        (Resilience.mutate_write payload = None))

(* ----------------------- parallel supervision ------------------------ *)

(* Kill worker domains mid-generation: domain 0 maps their chunks again
   and respawns them; the result must not change by a bit. *)
let test_supervised_absorbs_kills () =
  let c = cfg () in
  let og, os = E.explore_with_stats ~domains:3 ~par_threshold:2 c in
  let plan =
    {
      Resilience.seed = 1;
      faults =
        [
          Resilience.Kill_domain { domain = 1; after_ticks = 1 };
          Resilience.Kill_domain { domain = 2; after_ticks = 3 };
          Resilience.Kill_domain { domain = 1; after_ticks = 9 };
        ];
    }
  in
  with_plan plan (fun () ->
      let sg, ss = E.explore_with_stats ~domains:3 ~par_threshold:2 c in
      Alcotest.(check bool) "kills fired" true (Resilience.fired () >= 1);
      check_graph "killed workers" og sg;
      check_stats "killed workers" os ss)

(* ------------------------- with_recovery ------------------------------ *)

(* A kill aimed at domain 0 takes down the whole attempt (nothing
   supervises domain 0); with_recovery must pick the run
   back up from its periodic snapshots and land on the oracle. *)
let test_recovery_from_supervisor_kill () =
  let c = cfg () in
  let og, os = E.explore_with_stats c in
  in_tmp "kill0" @@ fun _ snap ->
  let plan =
    {
      Resilience.seed = 2;
      faults = [ Resilience.Kill_domain { domain = 0; after_ticks = 6 } ];
    }
  in
  with_plan plan (fun () ->
      let rg, rs =
        E.with_recovery ~snapshot_to:snap (fun ~resume_from ~snapshot_to ->
            E.explore_with_stats ~snapshot_every:1 ~snapshot_to ?resume_from
              ~salvage:true c)
      in
      Alcotest.(check int) "the kill fired" 1 (Resilience.fired ());
      check_graph "recovered from supervisor kill" og rg;
      check_stats "recovered from supervisor kill" os rs)

(* Injected allocation failure, on every store: the run degrades to an
   Oom-truncated result at its newest exact boundary (the in-RAM store
   flushes it; the disk store's resume point is its last periodic
   checkpoint); with_recovery resumes it to completion. *)
let test_recovery_from_alloc_fail () =
  let c = cfg () in
  List.iter
    (fun (name, store) ->
      in_tmp "alloc" @@ fun tmp snap ->
      let og, os = explore store ~dir:(Filename.concat tmp "oracle") c in
      let dir = Filename.concat tmp "runs" in
      let plan =
        {
          Resilience.seed = 3;
          faults = [ Resilience.Alloc_fail { after_boundaries = 3 } ];
        }
      in
      with_plan plan (fun () ->
          (* first, watch the degradation itself *)
          let _, ts =
            explore store ~dir ~snapshot_every:1 ~snapshot_to:snap c
          in
          Alcotest.(check bool) (name ^ ": degraded, not crashed") false
            ts.Checker_stats.complete;
          Alcotest.(check bool) (name ^ ": stop reason is oom") true
            (ts.Checker_stats.stop = Checker_stats.Oom);
          (* the fault is consumed; recovery resumes to the oracle *)
          let rg, rs =
            E.with_recovery ~resume_from:snap ~snapshot_to:snap
              (fun ~resume_from ~snapshot_to ->
                explore store ~dir ~snapshot_every:1 ~snapshot_to ?resume_from
                  ~salvage:true c)
          in
          Option.iter
            (fun og -> check_graph (name ^ ": recovered") og (Option.get rg))
            og;
          check_stats (name ^ ": recovered from alloc failure") os rs))
    stores

(* with_recovery end to end under one plan: the Oom-truncated RESULT
   (not exception) path must also trigger a retry. *)
let test_recovery_retries_truncated_result () =
  let c = cfg () in
  let og, _ = E.explore_with_stats c in
  in_tmp "oomres" @@ fun _ snap ->
  let plan =
    {
      Resilience.seed = 4;
      faults = [ Resilience.Alloc_fail { after_boundaries = 2 } ];
    }
  in
  with_plan plan (fun () ->
      let attempts = ref 0 in
      let rg, _ =
        E.with_recovery ~snapshot_to:snap (fun ~resume_from ~snapshot_to ->
            incr attempts;
            E.explore_with_stats ~snapshot_every:1 ~snapshot_to ?resume_from
              ~salvage:true c)
      in
      Alcotest.(check int) "one retry after the degradation" 2 !attempts;
      check_graph "converged" og rg)

(* Torn snapshot write mid-campaign: the live run must not care (damage
   goes to disk, not memory), and a salvaged resume of whatever the file
   ended up as must still land on the oracle. *)
let test_torn_write_salvage () =
  let c = cfg () in
  let og, os = E.explore_with_stats c in
  let total = os.Checker_stats.n_states in
  in_tmp "torn" @@ fun _ snap ->
  let plan =
    {
      Resilience.seed = 5;
      faults = [ Resilience.Torn_write { nth_write = 2; keep = 0.3 } ];
    }
  in
  with_plan plan (fun () ->
      let tg, _ =
        E.explore_with_stats
          ~max_states:(max 2 (total / 2))
          ~snapshot_every:1 ~snapshot_to:snap c
      in
      Alcotest.(check bool) "live run unharmed by torn write" false
        tg.E.complete;
      Alcotest.(check int) "the tear fired" 1 (Resilience.fired ());
      let rg, rs = E.explore_with_stats ~resume_from:snap ~salvage:true c in
      check_graph "salvaged resume after torn write" og rg;
      check_stats "salvaged resume after torn write" os rs)

(* ------------------------- disk faults -------------------------------- *)

(* Disk faults join the plan pool only when asked for: old seeds replay
   byte-for-byte, and [~disk:true] plans are deterministic in turn. *)
let test_disk_plan_determinism () =
  let is_disk = function
    | Resilience.Short_write _ | Resilience.Io_error _
    | Resilience.Disk_full _ | Resilience.Fsync_fail _ ->
      true
    | _ -> false
  in
  let p1 = Resilience.plan_of_seed ~intensity:12 42 in
  Alcotest.(check bool) "default plans stay storage-free" false
    (List.exists is_disk p1.Resilience.faults);
  let d1 = Resilience.plan_of_seed ~intensity:12 ~disk:true 42 in
  let d2 = Resilience.plan_of_seed ~intensity:12 ~disk:true 42 in
  Alcotest.(check bool) "same seed, same disk plan" true (d1 = d2);
  Alcotest.(check bool) "disk pool actually drawn from" true
    (List.exists is_disk d1.Resilience.faults)

(* Unit semantics of the storage injection points: short writes truncate,
   EIO and ENOSPC raise typed faults, fsync failures raise, and each
   fault fires exactly once at its scheduled operation. *)
let test_disk_injection_points () =
  let payload = String.make 64 'x' in
  let plan =
    {
      Resilience.seed = 0;
      faults =
        [
          Resilience.Short_write { nth_io = 1; keep = 0.25 };
          Resilience.Io_error { nth_io = 2 };
          Resilience.Fsync_fail { nth_sync = 2 };
          Resilience.Disk_full { after_bytes = 200 };
        ];
    }
  in
  with_plan plan (fun () ->
      Alcotest.(check bool) "disk faults pending" true
        (Resilience.has_disk_faults ());
      Alcotest.(check int) "io 1 truncated to a quarter" 16
        (String.length (Resilience.io_write payload));
      (match Resilience.io_write payload with
      | exception Resilience.Io_fault { op } ->
        Alcotest.(check bool) "EIO names the op" true
          (contains ~affix:"input/output error" op)
      | _ -> Alcotest.fail "EIO did not fire at io 2");
      (* io 3: 192 bytes offered so far, quota 200 still holds *)
      Alcotest.(check int) "io 3 unharmed" 64
        (String.length (Resilience.io_write payload));
      (* io 4 pushes cumulative bytes past 200: ENOSPC *)
      (match Resilience.io_write payload with
      | exception Resilience.Io_fault { op } ->
        Alcotest.(check bool) "ENOSPC names the op" true
          (contains ~affix:"no space left" op)
      | _ -> Alcotest.fail "ENOSPC did not fire");
      Resilience.io_sync ();
      (match Resilience.io_sync () with
      | exception Resilience.Io_fault { op } ->
        Alcotest.(check bool) "fsync failure names the op" true
          (contains ~affix:"fsync" op)
      | () -> Alcotest.fail "fsync fault did not fire at sync 2");
      Alcotest.(check int) "all four fired" 4 (Resilience.fired ());
      Alcotest.(check bool) "nothing pending" false
        (Resilience.has_disk_faults ());
      (* consumed faults leave the seams transparent *)
      Alcotest.(check int) "io 5 unharmed" 64
        (String.length (Resilience.io_write payload));
      Resilience.io_sync ())

(* An EIO thrown mid-snapshot is transient (injected faults fire once);
   with_recovery must retry through it to the oracle and stamp the
   retry into [recoveries] for dashboards. *)
let test_recovery_from_io_error () =
  let c = cfg () in
  let og, os = E.explore_with_stats c in
  in_tmp "eio" @@ fun _ snap ->
  let plan =
    {
      Resilience.seed = 6;
      faults =
        [
          Resilience.Io_error { nth_io = 2 };
          Resilience.Fsync_fail { nth_sync = 3 };
        ];
    }
  in
  with_plan plan (fun () ->
      let rg, rs =
        E.with_recovery ~snapshot_to:snap (fun ~resume_from ~snapshot_to ->
            E.explore_with_stats ~snapshot_every:1 ~snapshot_to ?resume_from
              ~salvage:true c)
      in
      Alcotest.(check bool) "io faults fired" true (Resilience.fired () >= 1);
      check_graph "recovered from EIO" og rg;
      Alcotest.(check bool)
        "stats bit-identical (mod clock, mod recovery count)"
        true
        (Checker_stats.equal_ignoring_time os
           { rs with Checker_stats.recoveries = 0 });
      Alcotest.(check bool) "retries stamped as recoveries" true
        (rs.Checker_stats.recoveries >= 1);
      Alcotest.(check bool) "recoveries visible in json" true
        (contains ~affix:"\"recoveries\"" (Checker_stats.to_json rs)))

(* The external-memory explorer under seeded plans widened with storage
   faults: with_recovery, which the CLI wraps around every explorer,
   must carry it through whatever fires to the fault-free external
   run's statistics. Hot cap 8 and a checkpoint per generation
   keep run files and snapshot chunks in play from the first boundary. *)
let test_recovery_external_disk_faults () =
  let c = cfg () in
  let os =
    Tmp.with_dir "res-ext-oracle" (fun dir ->
        E.explore_external ~hot_cap:8 ~dir c)
  in
  List.iter
    (fun seed ->
      in_tmp "ext" @@ fun tmp snap ->
      let dir = Filename.concat tmp "runs" in
      with_plan (Resilience.plan_of_seed ~disk:true seed) (fun () ->
          let (), rs =
            E.with_recovery
              ~max_retries:(3 + List.length (Resilience.pending ()))
              ~snapshot_to:snap
              (fun ~resume_from ~snapshot_to ->
                ( (),
                  E.explore_external ~hot_cap:8 ~snapshot_every:1 ~snapshot_to
                    ?resume_from ~salvage:true ~dir c ))
          in
          let tag = Printf.sprintf "external, plan %d" seed in
          Alcotest.(check bool) (tag ^ ": faults fired") true
            (Resilience.fired () >= 1);
          Alcotest.(check bool) (tag ^ ": retried") true
            (rs.Checker_stats.recoveries >= 1);
          check_stats tag os rs))
    [ 29; 30 ]

(* A short write damages snapshot bytes without raising; the CRC layer
   must flag the chunk and salvage must still land on the oracle. *)
let test_short_write_salvage () =
  let c = cfg () in
  let og, os = E.explore_with_stats c in
  let total = os.Checker_stats.n_states in
  in_tmp "shortw" @@ fun _ snap ->
  let plan =
    {
      Resilience.seed = 7;
      faults = [ Resilience.Short_write { nth_io = 2; keep = 0.4 } ];
    }
  in
  with_plan plan (fun () ->
      let tg, _ =
        E.explore_with_stats
          ~max_states:(max 2 (total / 2))
          ~snapshot_every:1 ~snapshot_to:snap c
      in
      Alcotest.(check bool) "live run unharmed by short write" false
        tg.E.complete;
      Alcotest.(check int) "the short write fired" 1 (Resilience.fired ());
      let rg, rs = E.explore_with_stats ~resume_from:snap ~salvage:true c in
      check_graph "salvaged resume after short write" og rg;
      check_stats "salvaged resume after short write" os rs)

(* --------------------------- deadlines -------------------------------- *)

(* On every store, an already-expired deadline stops the run at its
   first generation boundary with the snapshot flushed, and a resume with
   a fresh deadline completes to the uninterrupted run. *)
let test_deadline_stops_and_resumes () =
  let c = cfg () in
  List.iter
    (fun (name, store) ->
      in_tmp "deadline" @@ fun tmp snap ->
      let og, os = explore store ~dir:(Filename.concat tmp "oracle") c in
      let dir = Filename.concat tmp "runs" in
      let _, ds = explore store ~dir ~deadline_s:0.0 ~snapshot_to:snap c in
      let tag = ( ^ ) (name ^ ": ") in
      Alcotest.(check bool) (tag "deadline truncates") false
        ds.Checker_stats.complete;
      Alcotest.(check bool) (tag "stop reason is deadline") true
        (ds.Checker_stats.stop = Checker_stats.Deadline);
      Alcotest.(check bool) (tag "made some progress first") true
        (ds.Checker_stats.n_states >= 1);
      Alcotest.(check bool) (tag "snapshot flushed") true
        (Sys.file_exists snap);
      let rg, rs =
        explore store ~dir ~deadline_s:3600.0 ~resume_from:snap c
      in
      Option.iter
        (fun og -> check_graph (tag "resume after deadline") og (Option.get rg))
        og;
      check_stats (tag "resume after deadline") os rs;
      (* json carries the reason for dashboards *)
      Alcotest.(check bool) (tag "stop tag in json") true
        (contains ~affix:"\"deadline\"" (Checker_stats.to_json ds)))
    stores

let suite =
  [
    Alcotest.test_case "fault plans are deterministic" `Quick
      test_plan_determinism;
    Alcotest.test_case "fire-once accounting" `Quick test_fire_accounting;
    Alcotest.test_case "stall_tick leaves kills alone" `Quick
      test_stall_tick_ignores_kills;
    Alcotest.test_case "mutate_write damages the right write" `Quick
      test_mutate_write;
    Alcotest.test_case "supervised engine absorbs worker kills" `Slow
      test_supervised_absorbs_kills;
    Alcotest.test_case "with_recovery: supervisor kill" `Quick
      test_recovery_from_supervisor_kill;
    Alcotest.test_case "with_recovery: allocation failure" `Quick
      test_recovery_from_alloc_fail;
    Alcotest.test_case "with_recovery: retries truncated result" `Quick
      test_recovery_retries_truncated_result;
    Alcotest.test_case "torn snapshot write salvaged" `Quick
      test_torn_write_salvage;
    Alcotest.test_case "disk plans are deterministic and opt-in" `Quick
      test_disk_plan_determinism;
    Alcotest.test_case "disk injection-point semantics" `Quick
      test_disk_injection_points;
    Alcotest.test_case "with_recovery: EIO and fsync failure" `Quick
      test_recovery_from_io_error;
    Alcotest.test_case "with_recovery: external explorer, disk faults" `Quick
      test_recovery_external_disk_faults;
    Alcotest.test_case "short snapshot write salvaged" `Quick
      test_short_write_salvage;
    Alcotest.test_case "deadline stops gracefully, resume completes" `Quick
      test_deadline_stops_and_resumes;
  ]
