open Check

(* Durable checkpoint/resume for the explorers. The contract under test:
   a run truncated by its state budget or stopped by a (simulated) signal
   leaves a snapshot from which a resumed run reproduces the
   uninterrupted run's graph AND statistics bit-identically (modulo
   wall-clock), for both explorers and both reductions; corrupt or
   mismatched snapshots are refused with a typed error. *)

module P = Coord.Amutex.P
module E = Explore.Make (P)

let cfg_m m = E.config ~m ~ids:[ 7; 13 ] ~inputs:[ (); () ] ()

let tmp_snap name = Filename.temp_file ("coordsnap-" ^ name) ".snap"

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

(* [run ~par] is one explorer under one reduction with one option set. *)
let run ~par ?max_states ?snapshot_every ?snapshot_to ?resume_from ?salvage
    ~reduction cfg =
  if par then
    E.explore_with_stats ~domains:2 ~par_threshold:2 ?max_states ?snapshot_every
      ?snapshot_to ?resume_from ?salvage ~reduction cfg
  else
    E.explore_with_stats ?max_states ?snapshot_every ?snapshot_to
      ?resume_from ?salvage ~reduction cfg

let expect_error tag pred f =
  match f () with
  | exception Snapshot.Error e ->
    Alcotest.(check bool)
      (tag ^ ": rejected with the right error: " ^ Snapshot.error_message e)
      true (pred e)
  | exception e ->
    Alcotest.failf "%s: expected Snapshot.Error, got %s" tag
      (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: expected Snapshot.Error, but it succeeded" tag

(* ------------------- envelope (file format) layer ------------------- *)

let test_envelope_roundtrip () =
  let path = tmp_snap "env" in
  let fp = Digest.string "some exploration config" in
  let payload = "PAYLOAD \x00\x01\xff bytes" in
  Snapshot.write ~path ~fingerprint:fp ~descr:"protocol=x n=2" payload;
  let meta, got = Snapshot.read ~path in
  Alcotest.(check int) "version" 4 meta.Snapshot.version;
  Alcotest.(check string) "fingerprint" fp meta.Snapshot.fingerprint;
  Alcotest.(check string) "descr" "protocol=x n=2" meta.Snapshot.descr;
  Alcotest.(check string) "payload" payload got;
  let meta2 = Snapshot.read_meta ~path in
  Alcotest.(check string) "read_meta fingerprint" fp
    meta2.Snapshot.fingerprint;
  (* matching fingerprint passes silently *)
  Snapshot.check_fingerprint ~path meta ~fingerprint:fp ~descr:"current";
  expect_error "foreign fingerprint"
    (function Snapshot.Config_mismatch _ -> true | _ -> false)
    (fun () ->
      Snapshot.check_fingerprint ~path meta
        ~fingerprint:(Digest.string "a different exploration")
        ~descr:"current");
  Sys.remove path

(* Chunked appends: each append is one more self-checked chunk, [read]
   returns the newest, and the file compacts back to a single chunk after
   [max_chunks] boundaries. *)
let test_append_roundtrip () =
  let path = tmp_snap "append" in
  let fp = Digest.string "cfg" in
  Snapshot.write ~path ~fingerprint:fp ~descr:"d" "boundary 0";
  let size1 = (Unix.stat path).Unix.st_size in
  Snapshot.append ~path ~fingerprint:fp ~descr:"d" "boundary 1";
  Snapshot.append ~path ~fingerprint:fp ~descr:"d" "boundary 22";
  let _, got = Snapshot.read ~path in
  Alcotest.(check string) "read returns the newest chunk" "boundary 22" got;
  Alcotest.(check bool) "appends grew the file" true
    ((Unix.stat path).Unix.st_size > size1);
  (* salvage on an intact file reports nothing to salvage *)
  let _, got', salv = Snapshot.read_salvaged ~path in
  Alcotest.(check string) "salvaged read agrees" "boundary 22" got';
  Alcotest.(check bool) "no salvage needed" true (salv = None);
  (* push past [max_chunks]: the file compacts (rewrites) and still
     serves the newest boundary *)
  for i = 3 to Snapshot.max_chunks + 2 do
    Snapshot.append ~path ~fingerprint:fp ~descr:"d"
      (Printf.sprintf "boundary %d" i)
  done;
  let _, last = Snapshot.read ~path in
  Alcotest.(check string) "newest after compaction"
    (Printf.sprintf "boundary %d" (Snapshot.max_chunks + 2))
    last;
  Sys.remove path

let rewrite path bytes =
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Bytes.of_string s

let test_damage_rejected () =
  let path = tmp_snap "damage" in
  let fp = Digest.string "cfg" in
  Snapshot.write ~path ~fingerprint:fp ~descr:"d" "the payload to protect";
  let good = slurp path in
  let len = Bytes.length good in
  (* flipped payload byte: CRC must catch it *)
  let bad = Bytes.copy good in
  Bytes.set bad (len - 1)
    (Char.chr (Char.code (Bytes.get bad (len - 1)) lxor 0xff));
  rewrite path bad;
  expect_error "bit flip"
    (function Snapshot.Corrupt _ -> true | _ -> false)
    (fun () -> Snapshot.read ~path);
  (* truncated file *)
  rewrite path (Bytes.sub good 0 (len - 5));
  expect_error "truncation"
    (function Snapshot.Corrupt _ -> true | _ -> false)
    (fun () -> Snapshot.read ~path);
  (* not a snapshot at all *)
  rewrite path (Bytes.of_string "XXXXXXXXXX not a snapshot XXXXXXXXXX");
  expect_error "garbage"
    (function Snapshot.Bad_magic _ -> true | _ -> false)
    (fun () -> Snapshot.read ~path);
  (* future format version *)
  let future = Bytes.copy good in
  Bytes.set future 9 (Char.chr 42);
  rewrite path future;
  expect_error "version"
    (function
      | Snapshot.Bad_version { found = 42; _ } -> true | _ -> false)
    (fun () -> Snapshot.read ~path);
  Sys.remove path;
  expect_error "missing file"
    (function Snapshot.Io _ -> true | _ -> false)
    (fun () -> Snapshot.read ~path)

(* ------------------------- salvage matrix ---------------------------- *)

(* Envelope-level salvage: build a 3-chunk file with known payloads and
   damage it in every interesting place. Chunk frame = 1-byte marker +
   8-byte length + 4-byte CRC = 13 bytes of framing per chunk. *)
let test_salvage_matrix_envelope () =
  let path = tmp_snap "salvage" in
  let fp = Digest.string "cfg" in
  let p1 = "alpha" and p2 = "bravo!" and p3 = "charlie!!" in
  let header_len = 9 + 1 + 16 + 2 + 1 (* descr "d" *) in
  let chunk_len p = 13 + String.length p in
  let fresh () =
    if Sys.file_exists path then Sys.remove path;
    Snapshot.write ~path ~fingerprint:fp ~descr:"d" p1;
    Snapshot.append ~path ~fingerprint:fp ~descr:"d" p2;
    Snapshot.append ~path ~fingerprint:fp ~descr:"d" p3
  in
  fresh ();
  let good = slurp path in
  Alcotest.(check int) "layout arithmetic"
    (header_len + chunk_len p1 + chunk_len p2 + chunk_len p3)
    (Bytes.length good);
  let damaged mutate =
    let b = Bytes.copy good in
    mutate b;
    rewrite path b
  in
  let expect_salvage tag ~payload ~kept =
    (match Snapshot.read ~path with
    | exception Snapshot.Error (Snapshot.Corrupt _) -> ()
    | exception e ->
      Alcotest.failf "%s: strict read: expected Corrupt, got %s" tag
        (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: strict read accepted damage" tag);
    let _, got, salv = Snapshot.read_salvaged ~path in
    Alcotest.(check string) (tag ^ ": salvaged payload") payload got;
    match salv with
    | Some s ->
      Alcotest.(check int) (tag ^ ": kept chunks") kept s.Snapshot.kept_chunks
    | None -> Alcotest.failf "%s: salvage went unreported" tag
  in
  (* flipped byte in the newest chunk's payload: roll back one chunk *)
  damaged (fun b -> Bytes.set b (Bytes.length b - 1) 'X');
  expect_salvage "tail bit-flip" ~payload:p2 ~kept:2;
  (* torn append (truncated tail): roll back one chunk *)
  damaged (fun _ -> ());
  rewrite path (Bytes.sub good 0 (Bytes.length good - 5));
  expect_salvage "torn tail" ~payload:p2 ~kept:2;
  (* truncation reaching into chunk 2: only chunk 1 is left *)
  rewrite path
    (Bytes.sub good 0 (Bytes.length good - chunk_len p3 - 5));
  expect_salvage "deep truncation" ~payload:p1 ~kept:1;
  (* chunk 2's CRC bytes flipped: the scan must stop there — framing
     after a damaged chunk is unverifiable — keeping only chunk 1 *)
  damaged (fun b ->
      let crc_off = header_len + chunk_len p1 + 9 in
      Bytes.set b crc_off (Char.chr (Char.code (Bytes.get b crc_off) lxor 1)));
  expect_salvage "mid-file CRC damage" ~payload:p1 ~kept:1;
  (* a damaged header cannot be salvaged: nothing downstream is trusted *)
  damaged (fun b -> Bytes.set b 0 'Z');
  expect_error "salvage refuses bad magic"
    (function Snapshot.Bad_magic _ -> true | _ -> false)
    (fun () -> Snapshot.read_salvaged ~path);
  (* every chunk damaged: salvage has nothing to offer *)
  damaged (fun b ->
      List.iter
        (fun off -> Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1)))
        [
          header_len + chunk_len p1 - 1;
          header_len + chunk_len p1 + chunk_len p2 - 1;
          Bytes.length good - 1;
        ]);
  expect_error "no intact chunk"
    (function Snapshot.Corrupt _ -> true | _ -> false)
    (fun () -> Snapshot.read_salvaged ~path);
  Sys.remove path

(* Explorer-level salvage: {seq, par} x {Full, Canon}. Truncate a run at
   ~half the space with per-generation snapshots, damage the snapshot's
   tail (bit-flip or torn write), and demand that a strict resume refuses
   while a [~salvage:true] resume rolls back to an older boundary and
   still lands bit-identically on the oracle. *)
let test_salvage_matrix_explorers () =
  List.iter
    (fun (rname, reduction) ->
      List.iter
        (fun par ->
          List.iter
            (fun (dname, damage) ->
              let tag =
                Printf.sprintf "%s/%s/%s"
                  (if par then "par" else "seq")
                  rname dname
              in
              let cfg = cfg_m 3 in
              let og, os = run ~par ~reduction cfg in
              let cut = max 2 (os.Checker_stats.n_states / 2) in
              let snap = tmp_snap "salvagex" in
              let tg, _ =
                run ~par ~max_states:cut ~snapshot_every:1 ~snapshot_to:snap
                  ~reduction cfg
              in
              Alcotest.(check bool) (tag ^ ": truncated") false tg.E.complete;
              (* double the newest boundary so at least two chunks exist
                 no matter where compaction landed, then damage the tail *)
              let meta = Snapshot.read_meta ~path:snap in
              let _, newest = Snapshot.read ~path:snap in
              Snapshot.append ~path:snap
                ~fingerprint:meta.Snapshot.fingerprint
                ~descr:meta.Snapshot.descr newest;
              Snapshot.append ~path:snap
                ~fingerprint:meta.Snapshot.fingerprint
                ~descr:meta.Snapshot.descr newest;
              let b = slurp snap in
              damage snap b;
              expect_error (tag ^ ": strict resume refused")
                (function Snapshot.Corrupt _ -> true | _ -> false)
                (fun () -> run ~par ~resume_from:snap ~reduction cfg);
              let rg, rs =
                run ~par ~salvage:true ~resume_from:snap ~reduction cfg
              in
              check_graph (tag ^ ": salvaged resume") og rg;
              check_stats (tag ^ ": salvaged resume") os rs;
              Sys.remove snap)
            [
              ( "flip",
                fun snap b ->
                  Bytes.set b (Bytes.length b - 1) '\xAA';
                  rewrite snap b );
              ( "torn",
                fun snap b ->
                  rewrite snap (Bytes.sub b 0 (Bytes.length b - 7)) );
            ])
        [ false; true ])
    [ ("full", Explore.Full); ("canon", Explore.Canon) ]

(* --------------------- kill-and-resume bit-identity ------------------ *)

(* The acceptance matrix: {sequential, parallel} x {Full, Canon}. Each
   cell: truncate by budget at ~half the space, then resume with the full
   budget and demand the uninterrupted run's exact graph and stats. *)
let test_kill_and_resume () =
  List.iter
    (fun (rname, reduction) ->
      List.iter
        (fun par ->
          let tag =
            Printf.sprintf "%s/%s" (if par then "par" else "seq") rname
          in
          let cfg = cfg_m 3 in
          let og, os = run ~par ~reduction cfg in
          Alcotest.(check bool) (tag ^ ": oracle complete") true og.E.complete;
          let total = os.Checker_stats.n_states in
          Alcotest.(check bool) (tag ^ ": space big enough") true (total > 8);
          let cut = max 2 (total / 2) in
          let snap = tmp_snap "kill" in
          let tg, ts =
            run ~par ~max_states:cut ~snapshot_to:snap ~reduction cfg
          in
          Alcotest.(check bool) (tag ^ ": truncated") false tg.E.complete;
          Alcotest.(check bool)
            (tag ^ ": truncated stats say so")
            false ts.Checker_stats.complete;
          Alcotest.(check bool)
            (tag ^ ": snapshot flushed")
            true (Sys.file_exists snap);
          let rg, rs = run ~par ~resume_from:snap ~reduction cfg in
          check_graph tag og rg;
          check_stats tag os rs;
          Sys.remove snap)
        [ false; true ])
    [ ("full", Explore.Full); ("canon", Explore.Canon) ]

(* Resuming with the SAME truncating budget must reproduce the truncated
   run bit-identically too — and a second truncation chains into a third
   resume that still lands exactly on the oracle. *)
let test_chained_resume () =
  let cfg = cfg_m 3 in
  let og, os = E.explore_with_stats cfg in
  let total = os.Checker_stats.n_states in
  let cut1 = max 2 (total / 3) in
  let cut2 = max (cut1 + 2) (2 * total / 3) in
  let f1 = tmp_snap "chain1" and f2 = tmp_snap "chain2" in
  let t1, _ = E.explore_with_stats ~max_states:cut1 ~snapshot_to:f1 cfg in
  Alcotest.(check bool) "first truncation" false t1.E.complete;
  let direct2, dstats2 = E.explore_with_stats ~max_states:cut2 cfg in
  let t2, tstats2 =
    E.explore_with_stats ~max_states:cut2 ~resume_from:f1 ~snapshot_to:f2 cfg
  in
  Alcotest.(check bool) "second truncation" false t2.E.complete;
  check_graph "resume with same budget = direct truncated run" direct2 t2;
  check_stats "same-budget stats" dstats2 tstats2;
  let t3, s3 = E.explore_with_stats ~resume_from:f2 cfg in
  check_graph "chained resume lands on the oracle" og t3;
  check_stats "chained stats" os s3;
  Sys.remove f1;
  Sys.remove f2

(* ------------------------ graceful interruption ---------------------- *)

let test_signal_stop_and_resume () =
  let cfg = cfg_m 3 in
  let og, os = E.explore_with_stats cfg in
  let snap = tmp_snap "sig" in
  Fun.protect ~finally:Snapshot.reset_stop (fun () ->
      Snapshot.request_stop ();
      Alcotest.(check bool) "flag visible" true (Snapshot.stop_requested ());
      let ig, istats = E.explore_with_stats ~snapshot_to:snap cfg in
      Alcotest.(check bool) "interrupted run truncated" false ig.E.complete;
      Alcotest.(check bool)
        "interrupted stats truncated"
        false istats.Checker_stats.complete;
      Alcotest.(check bool) "final snapshot flushed" true
        (Sys.file_exists snap);
      Alcotest.(check bool) "stopped before finishing" true
        (Array.length ig.E.states < Array.length og.E.states);
      (* the unexpanded frontier is present with empty transition lists *)
      Alcotest.(check int) "succs padded to states"
        (Array.length ig.E.states)
        (Array.length ig.E.succs));
  let rg, rs = E.explore_with_stats ~resume_from:snap cfg in
  check_graph "after signal stop" og rg;
  check_stats "after signal stop" os rs;
  Sys.remove snap

(* Also exercise the parallel explorer's boundary polling: a stop
   requested before the run halts it at its first boundary, and the
   resume completes bit-identically. *)
let test_signal_stop_parallel () =
  let cfg = cfg_m 3 in
  let og, os = E.explore_with_stats ~domains:2 ~par_threshold:2 cfg in
  let snap = tmp_snap "sigpar" in
  Fun.protect ~finally:Snapshot.reset_stop (fun () ->
      Snapshot.request_stop ();
      let ig, _ =
        E.explore_with_stats ~domains:2 ~par_threshold:2 ~snapshot_to:snap cfg
      in
      Alcotest.(check bool) "interrupted par run truncated" false
        ig.E.complete);
  let rg, rs =
    E.explore_with_stats ~domains:2 ~par_threshold:2 ~resume_from:snap cfg
  in
  check_graph "par after signal stop" og rg;
  check_stats "par after signal stop" os rs;
  Sys.remove snap

(* --------------------- periodic snapshots, dispatch ------------------- *)

let test_periodic_snapshot_resume () =
  let cfg = cfg_m 3 in
  let plain = E.explore cfg in
  let snap = tmp_snap "periodic" in
  (* cadence 1: every generation boundary is flushed; the run completes *)
  let g1, s1 = E.explore_with_stats ~snapshot_every:1 ~snapshot_to:snap cfg in
  Alcotest.(check bool) "snapshotting run completes" true g1.E.complete;
  check_graph "snapshotting changes nothing" plain g1;
  Alcotest.(check bool) "periodic snapshot on disk" true
    (Sys.file_exists snap);
  (* the file holds some mid-run boundary; resuming it finishes the job *)
  let rg, rs = E.explore_with_stats ~resume_from:snap cfg in
  check_graph "resumed from periodic snapshot" g1 rg;
  check_stats "resumed from periodic snapshot" s1 rs;
  (* and the resumed graph is the plain oracle's *)
  let g2, _ = E.explore_with_stats ~resume_from:snap cfg in
  check_graph "resume lands on the plain oracle" plain g2;
  Sys.remove snap

let test_cross_explorer_resume () =
  let cfg = cfg_m 3 in
  let og = E.explore cfg in
  let total = Array.length og.E.states in
  let cut = max 2 (total / 2) in
  let snap = tmp_snap "cross" in
  (* sequential snapshot resumed by the parallel explorer *)
  let _ = E.explore_with_stats ~max_states:cut ~snapshot_to:snap cfg in
  let pg, _ =
    E.explore_with_stats ~domains:2 ~par_threshold:2 ~resume_from:snap cfg
  in
  check_graph "seq snapshot, par resume" og pg;
  (* and the other way around *)
  let _ =
    E.explore_with_stats ~domains:2 ~par_threshold:2 ~max_states:cut
      ~snapshot_to:snap cfg
  in
  let sg, _ = E.explore_with_stats ~resume_from:snap cfg in
  check_graph "par snapshot, seq resume" og sg;
  Sys.remove snap

(* -------------------------- refusal paths ---------------------------- *)

let test_config_mismatch_refused () =
  let snap = tmp_snap "mismatch" in
  let _ = E.explore_with_stats ~snapshot_every:1 ~snapshot_to:snap (cfg_m 3) in
  (* different register count *)
  expect_error "m=5 vs m=3 snapshot"
    (function Snapshot.Config_mismatch _ -> true | _ -> false)
    (fun () -> E.explore_with_stats ~resume_from:snap (cfg_m 5));
  (* different reduction: the quotient is a different graph *)
  expect_error "canon vs full snapshot"
    (function Snapshot.Config_mismatch _ -> true | _ -> false)
    (fun () ->
      E.explore_with_stats ~reduction:Explore.Canon ~resume_from:snap
        (cfg_m 3));
  Sys.remove snap

let test_corrupt_resume_refused () =
  let snap = tmp_snap "corruptresume" in
  let _ = E.explore_with_stats ~snapshot_every:1 ~snapshot_to:snap (cfg_m 3) in
  let b = slurp snap in
  Bytes.set b
    (Bytes.length b - 1)
    (Char.chr (Char.code (Bytes.get b (Bytes.length b - 1)) lxor 0x55));
  rewrite snap b;
  expect_error "resume from damaged snapshot"
    (function Snapshot.Corrupt _ -> true | _ -> false)
    (fun () -> E.explore_with_stats ~resume_from:snap (cfg_m 3));
  Sys.remove snap

let suite =
  [
    Alcotest.test_case "envelope roundtrip" `Quick test_envelope_roundtrip;
    Alcotest.test_case "chunked appends roundtrip" `Quick
      test_append_roundtrip;
    Alcotest.test_case "damaged files rejected" `Quick test_damage_rejected;
    Alcotest.test_case "salvage matrix: envelope" `Quick
      test_salvage_matrix_envelope;
    Alcotest.test_case "salvage matrix: seq+par x Full+Canon" `Slow
      test_salvage_matrix_explorers;
    Alcotest.test_case "kill and resume: seq+par x Full+Canon" `Slow
      test_kill_and_resume;
    Alcotest.test_case "chained double resume" `Quick test_chained_resume;
    Alcotest.test_case "signal stop, flush, resume" `Quick
      test_signal_stop_and_resume;
    Alcotest.test_case "signal stop: parallel explorer" `Slow
      test_signal_stop_parallel;
    Alcotest.test_case "periodic snapshots while completing" `Quick
      test_periodic_snapshot_resume;
    Alcotest.test_case "cross-explorer resume" `Slow
      test_cross_explorer_resume;
    Alcotest.test_case "config mismatch refused" `Quick
      test_config_mismatch_refused;
    Alcotest.test_case "corrupt snapshot refused on resume" `Quick
      test_corrupt_resume_refused;
  ]
