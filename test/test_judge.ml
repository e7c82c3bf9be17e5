open Anonmem
open Check

(* The CSR judge (Check.Scc and Check.Mutex_props over Flatgraph.t)
   against the list-based reference (judge_ref.ml) on the same graphs:
   test_check's hand-built graphs, random graphs, Fig 1 at n=2 under every
   naming for m=2..4, and Peterson and Burns, whose starvation verdicts
   exercise [starves]. Verdicts and witnesses must be equal element for
   element. *)

let pp_me ppf = function
  | None -> Fmt.string ppf "none"
  | Some (v : Mutex_props.me_violation) ->
    Fmt.pf ppf "state %d, procs (%d, %d)" v.state (fst v.procs) (snd v.procs)

let pp_df ppf = function
  | None -> Fmt.string ppf "none"
  | Some (v : Mutex_props.df_violation) ->
    Fmt.pf ppf "states %a, trying %a" Fmt.(Dump.list int) v.states
      Fmt.(Dump.list int) v.trying

let me_t = Alcotest.testable pp_me ( = )
let df_t = Alcotest.testable pp_df ( = )

let agree tag (r : Judge_ref.graph) (f : Flatgraph.t) =
  Alcotest.check me_t (tag ^ ": mutual exclusion") (Judge_ref.mutual_exclusion r)
    (Mutex_props.mutual_exclusion f);
  Alcotest.check df_t (tag ^ ": deadlock freedom") (Judge_ref.deadlock_freedom r)
    (Mutex_props.deadlock_freedom f);
  for p = 0 to r.n_procs - 1 do
    Alcotest.check df_t
      (Printf.sprintf "%s: starves p%d" tag p)
      (Judge_ref.starves r p) (Mutex_props.starves f p)
  done;
  Alcotest.(check (option int))
    (tag ^ ": starvation freedom")
    (Option.map fst (Judge_ref.starvation_freedom r))
    (Option.map fst (Mutex_props.starvation_freedom f))

let test_hand_built () =
  List.iter
    (fun (tag, r) -> agree tag r (Judge_ref.to_flat r))
    Test_check.hand_built

(* --- random graphs --- *)

let gen_graph =
  let open QCheck.Gen in
  let* n_procs = int_range 1 3 in
  let* n = int_range 1 12 in
  let status =
    frequencyl Flatgraph.[ (3, Try); (1, Rem); (1, Crit); (1, Exit); (1, Done) ]
  in
  let edge =
    let+ dst = int_bound (n - 1)
    and+ proc = int_bound (n_procs - 1)
    and+ enters_cs = frequencyl [ (3, false); (1, true) ] in
    { Flatgraph.dst; proc; enters_cs }
  in
  let+ statuses = array_size (return n) (array_size (return n_procs) status)
  and+ succs = array_size (return n) (list_size (int_bound 4) edge) in
  { Judge_ref.n_procs; statuses; succs }

let print_graph (r : Judge_ref.graph) =
  String.concat "; "
    (List.init (Array.length r.statuses) (fun v ->
         Printf.sprintf "%d[%s] -> %s" v
           (String.concat ""
              (Array.to_list
                 (Array.map
                    (fun s -> Format.asprintf "%a" Flatgraph.pp_status s)
                    r.statuses.(v))))
           (String.concat ","
              (List.map
                 (fun (t : Flatgraph.trans) ->
                   Printf.sprintf "%d/p%d%s" t.dst t.proc
                     (if t.enters_cs then "!" else ""))
                 r.succs.(v)))))

let qcheck_random =
  QCheck.Test.make ~name:"random graphs: CSR judge = list reference" ~count:2000
    (QCheck.make ~print:print_graph gen_graph)
    (fun r ->
      let f = Judge_ref.to_flat r in
      let n = Array.length r.statuses in
      (* unfiltered, Tarjan numbers the components identically *)
      let want =
        Judge_ref.Scc.compute ~n ~succs:(fun v ->
            List.map (fun (t : Flatgraph.trans) -> t.dst) r.succs.(v))
      in
      let got = Scc.compute f in
      agree "random graph" r f;
      want.count = got.count
      && want.component = got.component
      && Judge_ref.Scc.components want = Scc.components got)

(* --- explored graphs --- *)

(* The reference graph is built from the explored graph directly, not
   from [to_flat], so the comparison covers [to_flat] too. *)
module Explored (P : Protocol.PROTOCOL) = struct
  module E = Explore.Make (P)

  let reference (g : E.graph) =
    {
      Judge_ref.n_procs = Array.length g.cfg.ids;
      statuses =
        Array.map (fun st -> Array.map Flatgraph.of_status (E.statuses st)) g.states;
      succs =
        Array.map
          (List.map (fun { E.dst; label = { E.proc; enters_cs } } ->
               { Flatgraph.dst; proc; enters_cs }))
          g.succs;
    }

  let agree tag (cfg : E.config) =
    let g = E.explore cfg in
    Alcotest.(check bool) (tag ^ ": complete") true g.complete;
    agree tag (reference g) (E.to_flat g)
end

module Fig1 = Explored (Coord.Amutex.P)

let test_fig1_namings () =
  List.iter
    (fun m ->
      List.iter
        (fun namings ->
          Fig1.agree
            (Format.asprintf "Fig 1 m=%d %a" m Fmt.(array ~sep:sp Naming.pp) namings)
            {
              ids = Serve.Protocols.ids ~n:2;
              inputs = [| (); () |];
              namings;
            })
        (Serve.Protocols.namings_under_test ~n:2 ~m))
    [ 2; 3; 4 ]

module Peterson = Explored (Baseline.Peterson.P)
module Burns = Explored (Baseline.Burns.P)

let test_baselines () =
  Peterson.agree "Peterson" (Peterson.E.config ~ids:[ 1; 2 ] ~inputs:[ (); () ] ());
  List.iter
    (fun n ->
      let ids = List.init n (fun i -> i + 1) in
      Burns.agree
        (Printf.sprintf "Burns n=%d" n)
        (Burns.E.config ~ids ~inputs:(List.map ignore ids) ()))
    [ 2; 3 ]

let suite =
  [
    Alcotest.test_case "hand-built graphs" `Quick test_hand_built;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]) qcheck_random;
    Alcotest.test_case "Fig 1, n=2, every naming, m=2..4" `Quick test_fig1_namings;
    Alcotest.test_case "Peterson and Burns" `Quick test_baselines;
  ]
