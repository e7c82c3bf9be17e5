(* Plumbing shared by the workloads: what a workload reports, temp
   directories, passes and repeated set-up. *)

module M = Perfbench_measure.Measure

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;  (* aggregate output checks beyond per-operation ones *)
  e2e : (string * float) list;  (* untraced runs *)
  layer : (string * float) list;  (* traced runs *)
  spans : M.span list;  (* the traced run's spans, written out at exit *)
}

exception Workload_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Workload_failed s)) fmt

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> fail "VmHWM missing from /proc/self/status"
      in
      scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir parent name =
  let d = Filename.concat parent name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let file_size path = (Unix.stat path).Unix.st_size

(* The host reference (see [Measure.host_start]). Other tenants of a
   shared host slow the checker down by up to 1.7x, for seconds to
   minutes at a time, and the reference with it; so a run samples the reference
   [host_reps] times before and after every set-up round, and so right
   before and after every pass, and restates each time it measures at
   the host's nominal speed: scaled by [nominal_ref_s] over the
   reference's median around it. *)
let host : M.host option ref = ref None
let host_samples : (float * float) list ref = ref []  (* (when, seconds) *)
let host_reps = 3

(* Seconds [Measure.reference_work] takes on the development host when
   other tenants leave it alone. *)
let nominal_ref_s = 0.020

(* Samples within this many seconds of an interval count as around it. *)
let host_window_s = 1.0

let sample_host () =
  Option.iter
    (fun h ->
      for _ = 1 to host_reps do
        let d = M.host_sample h in
        host_samples := (M.now (), d) :: !host_samples
      done)
    !host

(* [adjust ~t0 ~t1 secs]: [secs] measured within [t0, t1], restated at
   the host's nominal speed by the reference's median around it: over
   the samples within [host_window_s], or else the [host_reps] nearest. *)
let adjust ~t0 ~t1 secs =
  if !host_samples = [] then fail "no host reference sample";
  let ref_s =
    M.median_around ~window:host_window_s ~fallback:host_reps ~t0 ~t1 !host_samples
  in
  secs *. nominal_ref_s /. ref_s

(* Repeated set-up. The host's speed swings by a half within seconds,
   so a set-up of a fraction of a second timed in one burst at the start
   of a run says more about the host at that moment than about the
   set-up. A run therefore sets up in rounds spread over the whole run,
   a round before each pass and one after the last, each set-up from a
   compacted heap and each round between host reference samples;
   [setup_s] is the median adjusted time of one set-up over every round,
   and [results] keeps what each set-up returned, newest first. *)
type 'a setup = {
  make : unit -> 'a;
  reps : int;  (* set-ups per round *)
  mutable times : (float * float) list;  (* (start, end) *)
  mutable results : 'a list;
}

let setup_round s =
  sample_host ();
  for _ = 1 to s.reps do
    Gc.compact ();
    let t0 = M.now () in
    let v = s.make () in
    s.times <- (t0, M.now ()) :: s.times;
    s.results <- v :: s.results
  done;
  sample_host ()

(* [setup ~reps make] runs the first round. *)
let setup ~reps make =
  let s = { make; reps; times = []; results = [] } in
  setup_round s;
  s

let setup_s s = M.median (List.map (fun (t0, t1) -> adjust ~t0 ~t1 (t1 -. t0)) s.times)

let value s = List.hd s.results

(* [passes ~seconds ~nominal_s ~setup f] runs as many whole passes as fit
   in [seconds] at the workload's nominal pass length, and at least one,
   each from a compacted heap and each followed by a round of [setup].
   The count depends only on the arguments, so the work of a run does
   not depend on how fast it goes. Returns the passes' results and the
   peak RSS after the first pass: set-up plus one pass, as a single run
   of the workload would hold it (later passes reuse a heap that the
   runtime does not hand back to the system). *)
let passes ~seconds ~nominal_s ~setup f =
  let peak = ref 0.0 in
  let xs =
    List.init
      (max 1 (int_of_float (seconds /. nominal_s)))
      (fun k ->
        Gc.compact ();
        let v = f k in
        if k = 0 then peak := peak_rss_mb ();
        setup_round setup;
        v)
  in
  (xs, !peak)

let gc_mark () = (Gc.quick_stat ()).Gc.major_collections

(* GC figures since [gc_mark] returned [majors]: major collections and
   the top heap size. *)
let gc_layer majors =
  let s = Gc.quick_stat () in
  [
    ("gc.major_collections", float (s.Gc.major_collections - majors));
    ("gc.top_heap_mb", float (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  ]

let mean xs = M.sum xs /. float (List.length xs)

(* Tracing overhead: a traced run against the mean of the untraced runs
   made just before and just after it, which cancels a steady drift. *)
let overhead ~traced ~before ~after = (traced /. ((before +. after) /. 2.0)) -. 1.0
