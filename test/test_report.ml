(* The experiment tables are the deliverable that regenerates EXPERIMENTS.md;
   these tests pin their shape (ids, non-emptiness, row widths) and spot-check
   a few verdict cells so a regression in any harness shows up here. *)

let render t = Format.asprintf "%a" Report.Table.render t

let test_table_render () =
  let t =
    Report.Table.make ~id:"T0" ~title:"demo" ~header:[ "a"; "bb" ]
      ~notes:[ "a note" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let s = render t in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "mentions %S" n) true (contains n))
    [ "== T0: demo =="; "| a "; "| bb |"; "| 333 |"; "a note" ]

let test_table_rejects_ragged_rows () =
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.make: row width mismatch") (fun () ->
      ignore
        (Report.Table.make ~id:"T" ~title:"t" ~header:[ "a"; "b" ]
           [ [ "only one" ] ]))

let test_by_id () =
  Alcotest.(check bool) "E1 found" true (Report.Experiments.by_id "E1" <> None);
  Alcotest.(check bool) "e13 found (case-insensitive)" true
    (Report.Experiments.by_id "e13" <> None);
  Alcotest.(check bool) "E99 unknown" true
    (Report.Experiments.by_id "E99" = None)

(* Running every quick experiment is the broadest integration test in the
   suite: it exercises the checker, the simulator, both adversaries and all
   protocols. Verdict cells must contain no VIOLATED/FAILED outside the
   rows that are *supposed* to exhibit violations. *)
let test_all_quick_experiments () =
  let tables = Report.Experiments.all Report.Experiments.Quick in
  Alcotest.(check bool) "all experiments produced tables" true
    (List.length tables >= 13);
  List.iter
    (fun (t : Report.Table.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has rows" t.id)
        true (t.rows <> []);
      List.iter
        (fun row ->
          Alcotest.(check int)
            (Printf.sprintf "%s row width" t.id)
            (List.length t.header) (List.length row))
        t.rows)
    tables;
  (* spot-check verdicts: E1 must be clean, E3's (2,4) cell must attack *)
  let find id =
    List.find (fun (t : Report.Table.t) -> t.id = id) tables
  in
  let e1 = find "E1" in
  List.iter
    (fun row ->
      Alcotest.(check string) "E1 ME ok" "ok" (List.nth row 3);
      Alcotest.(check string) "E1 DF ok" "ok" (List.nth row 4))
    e1.rows;
  let e3 = find "E3" in
  let row_n2 = List.hd e3.rows in
  Alcotest.(check string) "E3 n=2 m=2 attacked" "d=2 livelock"
    (List.nth row_n2 1);
  Alcotest.(check string) "E3 n=2 m=3 coprime" "coprime" (List.nth row_n2 2)

(* E22's disk-quota cell and a sweep without a state dir both work in
   directories of their own under the temp dir; neither may leave one
   behind. *)
let test_no_temp_leftovers () =
  let saved = Filename.get_temp_dir_name () in
  let tmp = Filename.temp_file "coordreport-tmp" ".d" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o755;
  Filename.set_temp_dir_name tmp;
  let leftovers () = Array.to_list (Sys.readdir tmp) in
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      List.iter
        (fun f ->
          let p = Filename.concat tmp f in
          if Sys.is_directory p then begin
            Array.iter (fun g -> Sys.remove (Filename.concat p g)) (Sys.readdir p);
            Sys.rmdir p
          end
          else Sys.remove p)
        (leftovers ());
      Sys.rmdir tmp)
    (fun () ->
      (match Report.Experiments.by_id "E22" with
      | Some e22 -> ignore (e22 Report.Experiments.Quick)
      | None -> Alcotest.fail "E22 missing");
      Alcotest.(check (list string)) "E22 leaves the temp dir empty" []
        (leftovers ());
      (match Serve.Sweep.parse "name = t\nprotocols = mutex\nm = 3\n" with
      | Ok spec -> ignore (Serve.Sweep.run spec)
      | Error e -> Alcotest.fail e);
      Alcotest.(check (list string)) "a sweep leaves the temp dir empty" []
        (leftovers ()))

let suite =
  [
    Alcotest.test_case "table rendering" `Quick test_table_render;
    Alcotest.test_case "table rejects ragged rows" `Quick
      test_table_rejects_ragged_rows;
    Alcotest.test_case "experiment lookup" `Quick test_by_id;
    Alcotest.test_case "E22 and sweeps leave no temp files" `Quick
      test_no_temp_leftovers;
    Alcotest.test_case "all quick experiments run clean" `Slow
      test_all_quick_experiments;
  ]
