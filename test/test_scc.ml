open Anonmem

(* Tarjan on known graphs, plus a differential check against a naive
   reachability-based SCC on random digraphs. *)

(* A one-process graph with successor lists [succs]. *)
let graph succs =
  Check.Flatgraph.of_lists ~n_procs:1
    (Array.map (fun _ -> [| Check.Flatgraph.Rem |]) succs)
    (Array.map
       (List.map (fun dst -> { Check.Flatgraph.dst; proc = 0; enters_cs = false }))
       succs)

let scc_of edges n =
  let succs = Array.make n [] in
  List.iter (fun (u, v) -> succs.(u) <- v :: succs.(u)) edges;
  Check.Scc.compute (graph succs)

let test_cycle () =
  let scc = scc_of [ (0, 1); (1, 2); (2, 0) ] 3 in
  Alcotest.(check int) "one component" 1 scc.count

let test_chain () =
  let scc = scc_of [ (0, 1); (1, 2) ] 3 in
  Alcotest.(check int) "three singletons" 3 scc.count

let test_two_cycles () =
  let scc = scc_of [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2) ] 4 in
  Alcotest.(check int) "two components" 2 scc.count;
  Alcotest.(check bool) "0 and 1 together" true
    (scc.component.(0) = scc.component.(1));
  Alcotest.(check bool) "2 and 3 together" true
    (scc.component.(2) = scc.component.(3));
  Alcotest.(check bool) "0 and 2 apart" true
    (scc.component.(0) <> scc.component.(2));
  (* sinks are numbered first: edge across components goes high -> low *)
  Alcotest.(check bool) "topological numbering" true
    (scc.component.(0) > scc.component.(2))

let test_self_loop () =
  let scc = scc_of [ (0, 0) ] 2 in
  Alcotest.(check int) "two components" 2 scc.count

let test_components_listing () =
  let scc = scc_of [ (0, 1); (1, 0) ] 3 in
  let comps = Check.Scc.components scc in
  let sizes = Array.to_list comps |> List.map List.length |> List.sort compare in
  Alcotest.(check (list int)) "sizes" [ 1; 2 ] sizes

let test_large_path () =
  (* a long path must not blow the stack: 200k vertices *)
  let n = 200_000 in
  let scc =
    Check.Scc.compute
      (graph (Array.init n (fun v -> if v + 1 < n then [ v + 1 ] else [])))
  in
  Alcotest.(check int) "all singletons" n scc.count

(* O(n^3) reference: v and w share a component iff each reaches the other. *)
let naive_same_component n succs =
  let reach = Array.make_matrix n n false in
  for v = 0 to n - 1 do
    reach.(v).(v) <- true;
    List.iter (fun w -> reach.(v).(w) <- true) (succs v)
  done;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  fun v w -> reach.(v).(w) && reach.(w).(v)

let test_random_differential () =
  let rng = Rng.create 2024 in
  for _trial = 1 to 50 do
    let n = 2 + Rng.int rng 14 in
    let n_edges = Rng.int rng (2 * n) in
    let succs = Array.make n [] in
    for _ = 1 to n_edges do
      let u = Rng.int rng n and v = Rng.int rng n in
      succs.(u) <- v :: succs.(u)
    done;
    let scc = Check.Scc.compute (graph succs) in
    let same = naive_same_component n (fun v -> succs.(v)) in
    for v = 0 to n - 1 do
      for w = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "partition agrees on (%d, %d)" v w)
          (same v w)
          (scc.component.(v) = scc.component.(w))
      done
    done;
    (* count must equal the number of distinct component ids, all in range *)
    let ids = List.sort_uniq compare (Array.to_list scc.component) in
    Alcotest.(check int) "count matches distinct ids" scc.count
      (List.length ids);
    List.iter
      (fun id ->
        Alcotest.(check bool) "id in range" true (id >= 0 && id < scc.count))
      ids
  done

let suite =
  [
    Alcotest.test_case "single cycle" `Quick test_cycle;
    Alcotest.test_case "chain" `Quick test_chain;
    Alcotest.test_case "two cycles" `Quick test_two_cycles;
    Alcotest.test_case "self loop" `Quick test_self_loop;
    Alcotest.test_case "components listing" `Quick test_components_listing;
    Alcotest.test_case "deep path (no stack overflow)" `Quick test_large_path;
    Alcotest.test_case "random graphs vs naive reachability" `Quick
      test_random_differential;
  ]
