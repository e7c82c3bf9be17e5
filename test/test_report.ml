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
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool) (id ^ " found") true
        (Report.Experiments.by_id id <> None);
      Alcotest.(check bool)
        (id ^ " found (case-insensitive)")
        true
        (Report.Experiments.by_id (String.lowercase_ascii id) <> None))
    Report.Experiments.registry;
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " unknown") true
        (Report.Experiments.by_id id = None))
    [ "E14"; "E18"; "E21"; "E99" ]

(* Every experiment, run once and shared by the cases below. *)
let tables = lazy (Report.Experiments.all ())

let find id =
  List.find (fun (t : Report.Table.t) -> t.id = id) (Lazy.force tables)

let column (t : Report.Table.t) name row =
  let rec idx i = function
    | [] -> Alcotest.failf "%s has no column %S" t.id name
    | h :: _ when h = name -> i
    | _ :: rest -> idx (i + 1) rest
  in
  List.nth row (idx 0 t.header)

(* Running every experiment is the broadest integration test in the
   suite: it exercises the checker, the simulator, both adversaries and all
   protocols. Verdict cells must contain no VIOLATED/FAILED outside the
   rows that are *supposed* to exhibit violations. *)
let test_all_experiments () =
  let tables = Lazy.force tables in
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
  let e1 = find "E1" in
  List.iter
    (fun row ->
      Alcotest.(check string) "E1 ME ok" "ok"
        (column e1 "mutual-exclusion" row);
      Alcotest.(check string) "E1 DF ok" "ok"
        (column e1 "deadlock-freedom" row))
    e1.rows;
  let e3 = find "E3" in
  let row_n2 = List.hd e3.rows in
  Alcotest.(check string) "E3 n=2 m=2 attacked" "d=2 livelock"
    (List.nth row_n2 1);
  Alcotest.(check string) "E3 n=2 m=3 coprime" "coprime" (List.nth row_n2 2)

(* The verdict tables judge what `coordctl check` judges: for each
   protocol at n=2, m=3, the runner's check job and the table's row agree
   on the largest state count, and the job passes exactly when every
   verdict cell reads ok. *)
let test_tables_match_runner () =
  List.iter
    (fun (proto, id, labels) ->
      let t = find id in
      let row =
        match t.rows with
        | [ row ] -> row
        | rows -> List.find (fun row -> column t "m" row = "3") rows
      in
      let spec = Serve.Spec.make ~n:2 ~m:3 Serve.Spec.Check proto in
      match Serve.Runner.run_slice spec Serve.Runner.start with
      | Serve.Runner.Yield _ -> Alcotest.fail "an unsliced job yielded"
      | Serve.Runner.Done o ->
        let max_states =
          List.fold_left
            (fun acc s -> max acc s.Check.Checker_stats.n_states)
            0 o.Serve.Runner.stats
        in
        Alcotest.(check string) (id ^ " max states")
          (string_of_int max_states) (column t "max states" row);
        Alcotest.(check bool) (id ^ " verdict")
          (o.Serve.Runner.verdict = Serve.Runner.Pass)
          (List.for_all (fun l -> column t l row = "ok") labels))
    [
      (Serve.Spec.Mutex, "E1", [ "mutual-exclusion"; "deadlock-freedom" ]);
      (Serve.Spec.Cmp_mutex, "E13", [ "mutual-exclusion"; "deadlock-freedom" ]);
      ( Serve.Spec.Consensus,
        "E4a",
        [ "agreement"; "validity"; "of-termination" ] );
      ( Serve.Spec.Election,
        "E5a",
        [ "one-leader"; "leader-participates"; "of-termination" ] );
      ( Serve.Spec.Renaming,
        "E6a",
        [ "uniqueness"; "adaptivity"; "of-termination" ] );
    ]

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
      | Some e22 -> ignore (e22 ())
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
    Alcotest.test_case "all experiments run clean" `Slow test_all_experiments;
    Alcotest.test_case "verdict tables match coordctl check" `Slow
      test_tables_match_runner;
  ]
