(* Tests for the benchmark's own arithmetic: percentile reporting rule,
   segments and rates, host reference windows, self time from child
   spans, allocation deltas. *)

open Perfbench_measure.Measure

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let upto n = List.init n (fun i -> float (i + 1))

let test_percentile () =
  check "p90 of 100 samples has 10 beyond it"
    (percentile ~p:0.9 (upto 100) = Some 90.0);
  check "p90 of 99 samples has only 9 beyond it"
    (percentile ~p:0.9 (upto 99) = None);
  check "p50 of 20 samples" (percentile ~p:0.5 (upto 20) = Some 10.0);
  check "p50 of 19 samples is withheld" (percentile ~p:0.5 (upto 19) = None);
  check "empty sample" (percentile ~p:0.5 [] = None);
  check "order does not matter"
    (percentile ~p:0.9 (List.rev (upto 150)) = Some 135.0);
  check "median odd" (median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median even" (median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let test_segments () =
  let items = [ (3.0, 1.0); (4.0, 1.0); (10.0, 2.0); (1.0, 1.0); (6.0, 3.0); (2.0, 1.0) ] in
  check "segments close once they reach min_work, remainder joins the last"
    (segments ~min_work:6.0 items = [ (7.0, 2.0); (10.0, 2.0); (9.0, 5.0) ]);
  check "a short list is one segment"
    (segments ~min_work:100.0 items = [ (26.0, 9.0) ]);
  check "no items, no segments" (segments ~min_work:1.0 [] = []);
  check "overall rate sums work and time"
    (close (overall_rate [ (30.0, 2.0); (20.0, 3.0) ]) 10.0);
  check "median rate divides work by time"
    (close (median_rate [ (10.0, 1.0); (30.0, 1.0); (20.0, 2.0) ]) 10.0)

let test_median_around () =
  let samples = [ (1.0, 10.0); (2.0, 20.0); (3.0, 30.0); (9.0, 90.0); (20.0, 200.0) ] in
  check "samples within the window around the interval"
    (close (median_around ~window:1.0 ~fallback:2 ~t0:2.5 ~t1:3.5 samples) 25.0);
  check "an interval spanning samples takes them all"
    (close (median_around ~window:0.0 ~fallback:2 ~t0:1.0 ~t1:9.0 samples) 25.0);
  check "no sample within the window falls back to the nearest"
    (close (median_around ~window:1.0 ~fallback:2 ~t0:12.0 ~t1:13.0 samples) 145.0)

let span ?(parent = -1) id t0 t1 =
  { id; name = string_of_int id; op = -1; parent; t0; t1; words = 0.0;
    count = 0 }

let test_self_time () =
  (* children overlap each other and one runs past its parent's end *)
  let spans =
    [
      span 0 0.0 10.0;
      span ~parent:0 1 1.0 3.0;
      span ~parent:0 2 2.0 5.0;
      span ~parent:0 3 8.0 12.0;
      (* a grandchild is covered by its parent, not subtracted again *)
      span ~parent:1 4 1.5 2.5;
    ]
  in
  let self = self_times spans in
  let self_of id = List.assoc id (List.map (fun (s, v) -> (s.id, v)) self) in
  check "parent self = 10 - |[1,5] u [8,10]|" (close (self_of 0) 4.0);
  check "child self subtracts its own child" (close (self_of 1) 1.0);
  check "leaf self = duration" (close (self_of 4) 1.0);
  let tbl = totals (span 5 0.0 1.0 :: List.map (fun s -> { s with name = "x" }) spans) in
  check "totals sum self times by name"
    (close (total tbl "x").self_s (4.0 +. 1.0 +. 3.0 +. 4.0 +. 1.0));
  check "totals count spans" ((total tbl "x").spans_n = 5);
  check "missing name is zero" ((total tbl "absent").spans_n = 0)

let test_alloc () =
  let before = { minor = 100.0; promoted = 10.0; major = 50.0 } in
  let after = { minor = 300.0; promoted = 40.0; major = 150.0 } in
  check "promoted words counted once"
    (close (allocated ~before ~after) 270.0);
  (* a 10k-element float array goes straight to the major heap: 10k words
     plus its header *)
  let r = recorder ~on:true in
  let a =
    with_span r "outer" (fun () ->
        with_span r ~count:Array.length "inner" (fun () ->
            Array.make 10_000 1.0))
  in
  ignore (Sys.opaque_identity a);
  match r.spans with
  | [ outer; inner ] ->
    check "inner span's parent is outer" (inner.parent = outer.id);
    check "inner span counts its work" (inner.count = 10_000);
    check "inner allocation seen"
      (inner.words >= 10_001.0 && inner.words < 10_001.0 +. 200.0);
    check "outer includes inner" (outer.words >= inner.words)
  | _ -> check "two spans recorded" false

let test_off () =
  let r = recorder ~on:false in
  check "off recorder is a plain call" (with_span r "x" (fun () -> 7) = 7);
  check "off recorder keeps nothing" (r.spans = [])

let () =
  test_percentile ();
  test_segments ();
  test_median_around ();
  test_self_time ();
  test_alloc ();
  test_off ();
  if !failures > 0 then exit 1;
  print_endline "perfbench measure: all checks passed"
