open Anonmem

(* Flatgraph is the protocol-agnostic shape every generic checker consumes;
   to_flat must mirror the explored graph exactly. *)

module E = Check.Explore.Make (Test_runtime.Toy)

let toy_graph () =
  E.explore (E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ())

let test_of_status () =
  let check name expect status =
    Alcotest.(check string) name expect
      (Format.asprintf "%a" Check.Flatgraph.pp_status
         (Check.Flatgraph.of_status status))
  in
  check "remainder" "remainder" Protocol.Remainder;
  check "trying" "trying" Protocol.Trying;
  check "critical" "critical" Protocol.Critical;
  check "exiting" "exiting" Protocol.Exiting;
  check "decided" "decided" (Protocol.Decided 42)

let test_to_flat_mirrors_graph () =
  let g = toy_graph () in
  let flat = E.to_flat g in
  Alcotest.(check int) "n_procs" 2 flat.Check.Flatgraph.n_procs;
  Alcotest.(check int) "state count"
    (Array.length g.E.states)
    (Check.Flatgraph.n_states flat);
  Alcotest.(check bool) "complete flag carried" g.E.complete
    flat.Check.Flatgraph.complete;
  Array.iteri
    (fun i st ->
      let want =
        Array.map Check.Flatgraph.of_status (E.statuses st)
      in
      Alcotest.(check bool)
        (Printf.sprintf "statuses of state %d" i)
        true
        (want = Check.Flatgraph.statuses flat i))
    g.E.states;
  Array.iteri
    (fun i trans ->
      let want =
        List.map
          (fun { E.dst; label = { E.proc; enters_cs } } ->
            { Check.Flatgraph.dst; proc; enters_cs })
          trans
      in
      Alcotest.(check bool)
        (Printf.sprintf "succs of state %d" i)
        true
        (want = Check.Flatgraph.succs flat i))
    g.E.succs

let test_truncated_flag () =
  let g = E.explore ~max_states:2 (E.config ~ids:[ 5; 9 ] ~inputs:[ (); () ] ())
  in
  Alcotest.(check bool) "graph truncated" false g.E.complete;
  Alcotest.(check bool) "flat truncated" false (E.to_flat g).Check.Flatgraph.complete

let test_every_edge_in_range () =
  let flat = E.to_flat (toy_graph ()) in
  let n = Check.Flatgraph.n_states flat in
  for v = 0 to n - 1 do
    List.iter
      (fun { Check.Flatgraph.dst; proc; enters_cs = _ } ->
        Alcotest.(check bool) "dst in range" true (dst >= 0 && dst < n);
        Alcotest.(check bool) "proc in range" true (proc >= 0 && proc < 2))
      (Check.Flatgraph.succs flat v)
  done

(* The list constructor and the list views are inverse. *)
let test_of_lists_round_trip () =
  let open Check.Flatgraph in
  let sts = [| [| Try; Crit; Rem |]; [| Exit; Done; Try |]; [| Rem; Rem; Rem |] |] in
  let edges =
    [|
      [ { dst = 1; proc = 2; enters_cs = true }; { dst = 0; proc = 0; enters_cs = false } ];
      [];
      [ { dst = 2; proc = 1; enters_cs = false } ];
    |]
  in
  let g = of_lists ~n_procs:3 sts edges in
  Alcotest.(check int) "states" 3 (n_states g);
  Alcotest.(check int) "edges" 3 (n_edges g);
  for v = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "statuses of %d" v) true (statuses g v = sts.(v));
    Alcotest.(check bool) (Printf.sprintf "succs of %d" v) true (succs g v = edges.(v))
  done

(* Offsets and ids are int32: a graph past 2^31 - 1 transitions is refused
   before anything is allocated, rather than wrapped. *)
let test_refuses_what_int32_cannot_hold () =
  let open Check.Flatgraph in
  Alcotest.(check int) "limit" ((1 lsl 31) - 1) max_edges;
  let refused what f =
    match f () with
    | (_ : t) -> Alcotest.fail (what ^ " accepted")
    | exception Invalid_argument _ -> ()
  in
  refused "2^31 transitions" (fun () ->
      create ~n_procs:2 ~n_states:1 ~n_edges:(max_edges + 1) ~complete:true);
  refused "2^31 states" (fun () ->
      create ~n_procs:2 ~n_states:(max_edges + 1) ~n_edges:0 ~complete:true);
  refused "128 processes" (fun () ->
      create ~n_procs:(max_procs + 1) ~n_states:1 ~n_edges:0 ~complete:true)

let suite =
  [
    Alcotest.test_case "of_status mapping" `Quick test_of_status;
    Alcotest.test_case "to_flat mirrors the graph" `Quick
      test_to_flat_mirrors_graph;
    Alcotest.test_case "truncation carried to flat" `Quick test_truncated_flag;
    Alcotest.test_case "edges well-formed" `Quick test_every_edge_in_range;
    Alcotest.test_case "list constructor round trip" `Quick test_of_lists_round_trip;
    Alcotest.test_case "refuses what int32 cannot hold" `Quick
      test_refuses_what_int32_cannot_hold;
  ]
