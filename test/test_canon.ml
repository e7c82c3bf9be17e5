open Anonmem
open Check

(* Symmetry-quotient exploration against the full-graph oracle.

   For every in-tree protocol: exploring with [~reduction:Canon] must give
   the same property verdicts as the full graph, the stored orbit sizes
   must partition the full reachable set exactly ([orbit_sum] equals the
   full state count), and the parallel explorer must reproduce the
   sequential quotient bit for bit. Asymmetric protocols must degrade to
   the identity group: their quotient IS the full graph.

   Also here: anonymity invariance (composing every naming with one fixed
   register permutation relabels the graph without changing anything
   observable) and exact-verdict parity of the memoized
   obstruction-freedom checker. *)

module Quot (P : Protocol.PROTOCOL) = struct
  module E = Explore.Make (P)
  module C = Canon.Make (P)

  (* Verdicts that are meaningful on a quotient graph: booleans and
     counts, never state indices (numbering differs across reductions). *)
  let verdicts (g : E.graph) =
    let fg = E.to_flat g in
    ( Option.is_some (Mutex_props.mutual_exclusion fg),
      Option.is_some (Mutex_props.deadlock_freedom fg),
      Option.is_some (Mutex_props.starvation_freedom fg),
      Option.is_some
        (Props.agreement
           ~equal:(fun a b -> Stdlib.compare a b = 0)
           ~statuses:E.statuses g.states),
      Option.is_some
        (Props.distinct_outputs
           ~equal:(fun a b -> Stdlib.compare a b = 0)
           ~statuses:E.statuses g.states),
      Option.is_some (E.check_obstruction_freedom g) )

  let group_order (cfg : E.config) =
    List.length
      (C.group ~ids:cfg.ids ~inputs:cfg.inputs ~namings:cfg.namings)

  (* [expect]: the automorphism group order this configuration must have.
     Order 1 means the quotient must be bit-identical to the full graph;
     order > 1 means it must be strictly smaller. *)
  let run ~expect (cfg : E.config) =
    let tag what = Printf.sprintf "%s: %s" P.name what in
    Alcotest.(check int) (tag "group order") expect (group_order cfg);
    let full, fstats = E.explore_with_stats cfg in
    let red, rstats = E.explore_with_stats ~reduction:Canon cfg in
    Alcotest.(check bool)
      (tag "full graph has unit orbits")
      true
      (Array.for_all (( = ) 1) full.orbits);
    Alcotest.(check int)
      (tag "full orbit_sum = states")
      (Array.length full.states)
      fstats.Checker_stats.orbit_sum;
    Alcotest.(check int)
      (tag "orbits partition the full reachable set")
      (Array.length full.states)
      rstats.Checker_stats.orbit_sum;
    Alcotest.(check int)
      (tag "orbit_sum = sum of stored orbits")
      rstats.Checker_stats.orbit_sum
      (Array.fold_left ( + ) 0 red.orbits);
    Alcotest.(check int)
      (tag "stats group order")
      expect rstats.Checker_stats.group_order;
    Alcotest.(check bool) (tag "stats canon flag") true rstats.Checker_stats.canon;
    Alcotest.(check bool)
      (tag "same verdicts on the quotient")
      true
      (verdicts full = verdicts red);
    if expect = 1 then begin
      Alcotest.(check bool)
        (tag "trivial group: quotient is the full graph")
        true
        (red.states = full.states && red.succs = full.succs
       && red.orbits = full.orbits && red.complete = full.complete)
    end
    else
      Alcotest.(check bool)
        (tag "non-trivial group: strictly fewer states")
        true
        (Array.length red.states < Array.length full.states);
    (* the parallel explorer must reproduce the sequential quotient
       bit-identically, both through wide generations (threshold 0) and
       through the adaptive sequential path (default threshold) *)
    List.iter
      (fun threshold ->
        let par, _ =
          E.explore_with_stats ~domains:2 ?par_threshold:threshold ~reduction:Canon
            cfg
        in
        Alcotest.(check bool)
          (tag "par = seq on the quotient")
          true
          (red.states = par.states && red.succs = par.succs
         && red.orbits = par.orbits && red.complete = par.complete))
      [ None; Some 0 ]

  (* Composing every naming with one fixed register permutation [pi]
     relabels physical memory without changing anything a process can
     observe. Discovery order is deterministic and locals are untouched,
     so the full graphs must agree on everything except the (permuted)
     register contents — same numbering, same transitions, same statuses.
     The quotient graphs must agree on all counts and verdicts. *)
  let run_invariance (cfg : E.config) pi =
    let tag what = Printf.sprintf "%s (invariance): %s" P.name what in
    let cfg' =
      { cfg with namings = Array.map (fun nu -> Naming.compose pi nu) cfg.namings }
    in
    let full = E.explore cfg in
    let full' = E.explore cfg' in
    Alcotest.(check bool)
      (tag "full: same transitions")
      true
      (full.succs = full'.succs);
    Alcotest.(check bool)
      (tag "full: same statuses")
      true
      (Array.for_all2
         (fun a b -> E.statuses a = E.statuses b)
         full.states full'.states);
    Alcotest.(check bool)
      (tag "full: same locals")
      true
      (Array.for_all2
         (fun (a : E.state) (b : E.state) -> a.locals = b.locals)
         full.states full'.states);
    let red, rs = E.explore_with_stats ~reduction:Canon cfg in
    let red', rs' = E.explore_with_stats ~reduction:Canon cfg' in
    Alcotest.(check int)
      (tag "quotient: same size")
      (Array.length red.states)
      (Array.length red'.states);
    Alcotest.(check int)
      (tag "quotient: same group order")
      rs.Checker_stats.group_order rs'.Checker_stats.group_order;
    Alcotest.(check int)
      (tag "quotient: same orbit sum")
      rs.Checker_stats.orbit_sum rs'.Checker_stats.orbit_sum;
    Alcotest.(check bool)
      (tag "quotient: same orbit multiset")
      true
      (let sorted o =
         let o = Array.copy o in
         Array.sort compare o;
         o
       in
       sorted red.orbits = sorted red'.orbits);
    Alcotest.(check bool)
      (tag "quotient: same verdicts")
      true
      (verdicts red = verdicts red')

  (* The memoized obstruction-freedom check promises exact verdict parity
     with the plain per-state solo walk, including which (state, proc)
     pair fails first, at any bound. *)
  let run_of_memo ?(bounds = [ 0; 1; 3; 7; 50 ]) (cfg : E.config) =
    let g = E.explore cfg in
    List.iter
      (fun b ->
        let plain = E.check_obstruction_freedom ~bound:b ~memo:false g in
        let memo = E.check_obstruction_freedom ~bound:b ~memo:true g in
        Alcotest.(check bool)
          (Printf.sprintf "%s: OF memo parity at bound %d" P.name b)
          true (plain = memo))
      bounds;
    let plain = E.check_obstruction_freedom ~memo:false g in
    let memo = E.check_obstruction_freedom g in
    Alcotest.(check bool)
      (P.name ^ ": OF memo parity at default bound")
      true (plain = memo)
end

let pi3 = Naming.of_array [| 2; 0; 1 |]
let pi2 = Naming.of_array [| 1; 0 |]

(* random register permutations for the invariance tests, from a fixed
   seed so the suite stays deterministic *)
let random_pis m k =
  let rng = Rng.create 0x5EED in
  List.init k (fun _ -> Naming.random rng m)

(* --- anonymous mutex (Figure 1) --- *)

module QMutex = Quot (Coord.Amutex.P)

let amutex_sym n m =
  {
    QMutex.E.ids = Array.init n (fun i -> 7 + i);
    inputs = Array.make n ();
    namings = Array.init n (fun _ -> Naming.identity m);
  }

let test_amutex () =
  (* identical namings: the full symmetric group S_n *)
  QMutex.run ~expect:2 (amutex_sym 2 3);
  (* Theorem 3.4's lock-step tuple: n = m rotations form a cyclic group *)
  QMutex.run ~expect:3
    {
      QMutex.E.ids = [| 7; 8; 9 |];
      inputs = [| (); (); () |];
      namings = Array.init 3 (fun q -> Naming.rotation 3 q);
    };
  (* generic distinct namings: only the identity survives *)
  QMutex.run ~expect:1
    {
      QMutex.E.ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 3; Naming.rotation 3 1 |];
    }

let test_amutex_invariance () =
  List.iter
    (fun pi ->
      QMutex.run_invariance (amutex_sym 2 3) pi;
      QMutex.run_invariance
        {
          QMutex.E.ids = [| 7; 13 |];
          inputs = [| (); () |];
          namings = [| Naming.identity 3; Naming.rotation 3 1 |];
        }
        pi)
    (pi3 :: random_pis 3 3)

(* --- comparison-based mutex: order-sensitive, must not reduce --- *)

module QCmp = Quot (Coord.Cmp_mutex.P)

let test_cmp_mutex () =
  QCmp.run ~expect:1
    {
      QCmp.E.ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 2; Naming.identity 2 |];
    }

(* --- consensus / election --- *)

module QCons = Quot (Coord.Consensus.P)

let test_consensus () =
  (* equal inputs: processes are interchangeable *)
  QCons.run ~expect:2
    {
      QCons.E.ids = [| 7; 13 |];
      inputs = [| 42; 42 |];
      namings = [| Naming.identity 3; Naming.identity 3 |];
    };
  (* distinct inputs break the symmetry *)
  QCons.run ~expect:1
    {
      QCons.E.ids = [| 7; 13 |];
      inputs = [| 100; 200 |];
      namings = [| Naming.identity 3; Naming.identity 3 |];
    }

module QElect = Quot (Coord.Election.P)

let test_election () =
  QElect.run ~expect:2
    {
      QElect.E.ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 3; Naming.identity 3 |];
    }

(* --- renaming --- *)

module QRen = Quot (Coord.Renaming.P)

let test_renaming () =
  QRen.run ~expect:2
    {
      QRen.E.ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 3; Naming.identity 3 |];
    }

let test_renaming_invariance () =
  List.iter
    (fun pi ->
      QRen.run_invariance
        {
          QRen.E.ids = [| 7; 13 |];
          inputs = [| (); () |];
          namings = [| Naming.identity 3; Naming.identity 3 |];
        }
        pi)
    (random_pis 3 2)

(* --- choice coordination --- *)

module QCcp = Quot (Coord.Ccp.P)

let ccp_cfg namings = { QCcp.E.ids = [| 7; 13 |]; inputs = [| (); () |]; namings }

let test_ccp () =
  QCcp.run ~expect:2
    (ccp_cfg [| Naming.identity 2; Naming.identity 2 |]);
  (* on two registers the 1-rotation is an involution, so the swapped
     naming pair maps onto itself under the process swap: still order 2 *)
  QCcp.run ~expect:2
    (ccp_cfg [| Naming.identity 2; Naming.rotation 2 1 |]);
  List.iter (fun pi -> QCcp.run_invariance (ccp_cfg [| Naming.identity 2; Naming.identity 2 |]) pi)
    [ pi2 ]

module QCcpK = Quot (Coord.Ccp_k.P3)

let test_ccp_k () =
  QCcpK.run ~expect:2
    {
      QCcpK.E.ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 3; Naming.identity 3 |];
    };
  (* on three registers a 1-rotation is not an involution: swapping the
     processes cannot map the naming tuple onto itself *)
  QCcpK.run ~expect:1
    {
      QCcpK.E.ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 3; Naming.rotation 3 1 |];
    }

(* --- named baselines: asymmetric by construction --- *)

module QPet = Quot (Baseline.Peterson.P)

let test_peterson () =
  QPet.run ~expect:1 (QPet.E.config ~ids:[ 1; 2 ] ~inputs:[ (); () ] ())

module QBurns = Quot (Baseline.Burns.P)

let test_burns () =
  QBurns.run ~expect:1
    (QBurns.E.config ~ids:[ 1; 2; 3 ] ~inputs:[ (); (); () ] ())

(* --- property: canonical representatives across discovery orders ---

   On Gen-drawn instances (seeded, boundary-biased), the quotient's
   stored representatives must be fixed points of the reference
   materialize-and-sort canonizer with matching orbit sizes (old path =
   new incremental path), identical across seq and par explorers at
   domains 1/2/4 on both scheduling paths, identical across a
   snapshot/resume boundary, and the incremental ctx must agree with the
   reference on every raw orbit element — not just the canonical ones
   the explorer happens to store. *)

module CdMutex = Codec.Make (Coord.Amutex.P)

let test_gen_canonical_invariance () =
  let rng = Rng.create 0xCA70 in
  for _ = 1 to 4 do
    let p = Gen.params ~profile:Gen.smoke_profile rng in
    let cfg =
      {
        QMutex.E.ids = p.Gen.ids;
        inputs = Array.make p.Gen.n ();
        namings = Array.map Naming.of_array p.Gen.namings;
      }
    in
    let tag what =
      Printf.sprintf "gen n=%d m=%d ids=[%s]: %s" p.Gen.n p.Gen.m
        (String.concat ";"
           (Array.to_list (Array.map string_of_int p.Gen.ids)))
        what
    in
    let syms =
      QMutex.C.group ~ids:cfg.ids ~inputs:cfg.inputs ~namings:cfg.namings
    in
    let red, rstats = QMutex.E.explore_with_stats ~reduction:Canon cfg in
    let fixed = ref true and orbits_ok = ref true in
    Array.iteri
      (fun i (st : QMutex.E.state) ->
        let mem, locals, orbit = QMutex.C.canonize syms st.mem st.locals in
        if not (mem = st.mem && locals = st.locals) then fixed := false;
        if orbit <> red.orbits.(i) then orbits_ok := false)
      red.states;
    Alcotest.(check bool)
      (tag "stored reps are reference fixed points")
      true !fixed;
    Alcotest.(check bool)
      (tag "stored orbits match the reference")
      true !orbits_ok;
    (* direct old-vs-new on raw states: a private incremental ctx must
       agree with the reference canonizer on every orbit element *)
    (match syms with
    | [] | [ _ ] -> ()
    | _ ->
      let codec = CdMutex.create () in
      let init = QMutex.E.initial cfg in
      let ctx =
        QMutex.C.make_ctx ~syms
          ~value_code:(CdMutex.value_code codec)
          ~local_code:(CdMutex.local_code codec)
          ~pack:(CdMutex.key_of_codes codec)
          ~init:(init.mem, init.locals)
      in
      let agree = ref true in
      Array.iter
        (fun (st : QMutex.E.state) ->
          List.iter
            (fun sym ->
              let rmem, rloc = QMutex.C.apply sym st.mem st.locals in
              let cmem, cloc, corb = QMutex.C.canonize syms rmem rloc in
              let raw = QMutex.C.state_key ctx rmem rloc in
              let imem, iloc, _key, iorb =
                QMutex.C.canonize_keyed ctx ~raw rmem rloc
              in
              if not (imem = cmem && iloc = cloc && iorb = corb) then
                agree := false)
            syms)
        red.states;
      Alcotest.(check bool)
        (tag "incremental = reference on every orbit element")
        true !agree);
    (* identical quotient across domain counts, through both wide
       generations (threshold 0) and the adaptive sequential path *)
    List.iter
      (fun d ->
        List.iter
          (fun threshold ->
            let par, _ =
              QMutex.E.explore_with_stats ~domains:d ?par_threshold:threshold
                ~reduction:Canon cfg
            in
            Alcotest.(check bool)
              (tag (Printf.sprintf "par(%d domains) = seq quotient" d))
              true
              (par.states = red.states && par.succs = red.succs
             && par.orbits = red.orbits && par.complete = red.complete))
          [ None; Some 0 ])
      [ 1; 2; 4 ];
    (* the representative choice survives a snapshot/resume boundary *)
    let snap = Filename.temp_file "canon-gen" ".snap" in
    let budget = max 2 (Array.length red.states / 2) in
    let trunc, _ =
      QMutex.E.explore_with_stats ~reduction:Canon ~max_states:budget
        ~snapshot_to:snap cfg
    in
    Alcotest.(check bool) (tag "budget truncated") false trunc.complete;
    let res, res_stats =
      QMutex.E.explore_with_stats ~reduction:Canon ~resume_from:snap cfg
    in
    Sys.remove snap;
    Alcotest.(check bool)
      (tag "resumed quotient = uninterrupted quotient")
      true
      (res.states = red.states && res.succs = red.succs
     && res.orbits = red.orbits && res.complete = red.complete);
    Alcotest.(check bool)
      (tag "resumed stats = uninterrupted stats")
      true
      (Checker_stats.equal_ignoring_time res_stats rstats)
  done

(* --- obstruction-freedom memoization parity --- *)

let test_of_memo () =
  QMutex.run_of_memo (amutex_sym 2 3);
  QCons.run_of_memo
    {
      QCons.E.ids = [| 7; 13 |];
      inputs = [| 100; 200 |];
      namings = [| Naming.identity 3; Naming.rotation 3 1 |];
    };
  QRen.run_of_memo
    {
      QRen.E.ids = [| 7; 13 |];
      inputs = [| (); () |];
      namings = [| Naming.identity 3; Naming.identity 3 |];
    };
  QCcp.run_of_memo (ccp_cfg [| Naming.identity 2; Naming.rotation 2 1 |])

let suite =
  [
    Alcotest.test_case "quotient: anonymous mutex" `Quick test_amutex;
    Alcotest.test_case "quotient: cmp mutex stays full" `Quick test_cmp_mutex;
    Alcotest.test_case "quotient: consensus" `Quick test_consensus;
    Alcotest.test_case "quotient: election" `Quick test_election;
    Alcotest.test_case "quotient: renaming" `Quick test_renaming;
    Alcotest.test_case "quotient: ccp" `Quick test_ccp;
    Alcotest.test_case "quotient: ccp-k" `Quick test_ccp_k;
    Alcotest.test_case "quotient: peterson stays full" `Quick test_peterson;
    Alcotest.test_case "quotient: burns stays full" `Quick test_burns;
    Alcotest.test_case "anonymity invariance: amutex" `Quick
      test_amutex_invariance;
    Alcotest.test_case "anonymity invariance: renaming" `Quick
      test_renaming_invariance;
    Alcotest.test_case "canonical invariance on random instances" `Quick
      test_gen_canonical_invariance;
    Alcotest.test_case "obstruction-freedom memo parity" `Quick test_of_memo;
  ]
