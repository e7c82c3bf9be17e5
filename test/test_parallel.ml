open Anonmem

(* The multicore backend: real domains over real atomics. These tests
   assert safety only (the OS scheduler is a weaker adversary than the
   simulator's, and obstruction-free progress is not guaranteed under
   contention) — every run that does decide must be correct. *)

module PCons = Parallel.Prun.Make (Coord.Consensus.P)
module PRen = Parallel.Prun.Make (Coord.Renaming.P)
module PMutex = Parallel.Prun.Make (Coord.Amutex.P)
module PCcp = Parallel.Prun.Make (Coord.Ccp.P)

let namings_of rng n m = Array.init n (fun _ -> Naming.random rng m)

let test_consensus_domains () =
  for round = 1 to 8 do
    let n = 2 + (round mod 2) in
    let m = (2 * n) - 1 in
    let rng = Rng.create (round * 13) in
    let inputs = Array.init n (fun i -> (i + 1) * 100) in
    let cfg : PCons.config =
      {
        ids = Array.init n (fun i -> (i + 1) * 7);
        inputs;
        namings = namings_of rng n m;
        seed = round;
      }
    in
    let o = PCons.run_decide cfg in
    let decided =
      Array.to_list o.results |> List.filter_map (fun r -> r.PCons.output)
    in
    (* agreement + validity on whatever did decide *)
    (match decided with
    | [] -> ()
    | v :: rest ->
      List.iter (fun w -> Alcotest.(check int) "agreement" v w) rest;
      Alcotest.(check bool) "validity" true (Array.exists (( = ) v) inputs));
    (* domains uncontended at the end usually all decide; don't require it *)
    Alcotest.(check bool) "someone decided" true (decided <> [])
  done

let test_renaming_domains () =
  for round = 1 to 6 do
    let n = 2 + (round mod 2) in
    let m = (2 * n) - 1 in
    let rng = Rng.create (round * 29) in
    let cfg : PRen.config =
      {
        ids = Array.init n (fun i -> (i + 1) * 13);
        inputs = Array.make n ();
        namings = namings_of rng n m;
        seed = round;
      }
    in
    let o = PRen.run_decide cfg in
    let names =
      Array.to_list o.results |> List.filter_map (fun r -> r.PRen.output)
    in
    Alcotest.(check bool) "names within {1..n}" true
      (List.for_all (fun v -> 1 <= v && v <= n) names);
    Alcotest.(check bool) "names distinct" true
      (List.length (List.sort_uniq compare names) = List.length names)
  done

let test_mutex_domains () =
  for round = 1 to 4 do
    let m = 3 + (2 * (round mod 2)) in
    let cfg : PMutex.config =
      {
        ids = [| 7; 13 |];
        inputs = [| (); () |];
        namings =
          (let rng = Rng.create (round * 41) in
           namings_of rng 2 m);
        seed = round;
      }
    in
    let o = PMutex.run_sessions ~step_budget:400_000 ~sessions:50 cfg in
    Alcotest.(check bool) "no mutual-exclusion violation" true
      (not o.mutex_violation);
    let total =
      Array.fold_left (fun acc r -> acc + r.PMutex.cs_entries) 0 o.results
    in
    Alcotest.(check bool) "critical sections were used" true (total > 0)
  done

let test_ccp_domains () =
  for round = 1 to 8 do
    let n = 2 + (round mod 3) in
    let rng = Rng.create (round * 53) in
    let cfg : PCcp.config =
      {
        ids = Array.init n (fun i -> (i + 1) * 3);
        inputs = Array.make n ();
        namings = namings_of rng n 2;
        seed = round;
      }
    in
    let o = PCcp.run_decide ~step_budget:200_000 cfg in
    (* whoever chose must have chosen the same physical register *)
    let phys =
      Array.to_list
        (Array.mapi
           (fun i (r : PCcp.proc_result) ->
             Option.map (fun loc -> Naming.apply cfg.namings.(i) loc) r.output)
           o.results)
      |> List.filter_map Fun.id
    in
    match phys with
    | [] -> ()
    | a :: rest ->
      List.iter (fun b -> Alcotest.(check int) "same register" a b) rest
  done

let test_memory_snapshot_consistent () =
  (* after a solo (n=1) consensus run the memory holds the decided pair in
     every register *)
  let cfg : PCons.config =
    {
      ids = [| 5 |];
      inputs = [| 42 |];
      namings = [| Naming.identity 1 |];
      seed = 1;
    }
  in
  let o = PCons.run_decide cfg in
  Alcotest.(check (option int)) "decided own input" (Some 42)
    o.results.(0).PCons.output;
  Array.iter
    (fun (v : Coord.Consensus.Value.t) ->
      Alcotest.(check int) "register holds the decision" 42 v.pref)
    o.memory

(* ---------------- robustness: crashes, corpses and watchdogs --------- *)

(* A protocol whose id-1 process raises out of its step; its peers spin
   forever. Before the per-domain exception capture + shared stop flag,
   this escaped through [Domain.join] while the peers burned their whole
   budgets against a corpse. *)
module Boom_p = struct
  module Value = struct
    type t = int

    let init = 0
    let equal = Int.equal
    let compare = Int.compare
    let pp = Format.pp_print_int
  end

  type input = unit
  type output = int
  type local = Start | Spin

  let name = "boom"
  let default_registers ~n:_ = 1
  let start ~n:_ ~m:_ ~id:_ () = Start

  let step ~n:_ ~m:_ ~id local : (local, Value.t) Protocol.step =
    match local with
    | Start -> if id = 1 then failwith "boom" else Internal Spin
    | Spin -> Internal Spin

  let status _ = Protocol.Trying
  let compare_local = Stdlib.compare
  let symmetric = false
  let map_value_ids _ v = v
  let map_local_ids _ l = l
  let pp_local ppf _ = Format.pp_print_string ppf "<boom>"
  let pp_input ppf () = Format.pp_print_string ppf "()"
  let pp_output = Format.pp_print_int
end

module PBoom = Parallel.Prun.Make (Boom_p)

(* A protocol whose id-1 process blocks inside a single step until
   released — a livelocked domain no step budget can bound. Before the
   heartbeat watchdog, [run_decide] sat in [Domain.join] forever. *)
let hang_release = Atomic.make false

(* bumped by the hanging step the moment it leaves its blocking loop, so
   tests can wait for the leaked domain on an event instead of a timed
   sleep (the old [Unix.sleepf 0.05] raced the domain's exit on loaded
   machines) *)
let hang_exited = Atomic.make 0

module Hang_p = struct
  module Value = Boom_p.Value

  type input = unit
  type output = int
  type local = Start | Done

  let name = "hang"
  let default_registers ~n:_ = 1
  let start ~n:_ ~m:_ ~id:_ () = Start

  let step ~n:_ ~m:_ ~id local : (local, Value.t) Protocol.step =
    match local with
    | Start ->
      if id = 1 then begin
        while not (Atomic.get hang_release) do
          Domain.cpu_relax ()
        done;
        Atomic.incr hang_exited
      end;
      Internal Done
    | Done -> invalid_arg "hang: decided"

  let status = function Start -> Protocol.Trying | Done -> Protocol.Decided 0
  let compare_local = Stdlib.compare
  let symmetric = false
  let map_value_ids _ v = v
  let map_local_ids _ l = l
  let pp_local ppf _ = Format.pp_print_string ppf "<hang>"
  let pp_input ppf () = Format.pp_print_string ppf "()"
  let pp_output = Format.pp_print_int
end

module PHang = Parallel.Prun.Make (Hang_p)

let test_escaped_exception_degrades_gracefully () =
  let budget = 10_000_000 in
  let cfg : PBoom.config =
    {
      ids = [| 1; 2; 3 |];
      inputs = [| (); (); () |];
      namings = Array.init 3 (fun _ -> Naming.identity 1);
      seed = 1;
    }
  in
  let o = PBoom.run_decide ~step_budget:budget cfg in
  Alcotest.(check bool) "raising process recorded as crashed" true
    o.results.(0).PBoom.crashed;
  Alcotest.(check bool) "peers did not crash" false
    (o.results.(1).PBoom.crashed || o.results.(2).PBoom.crashed);
  Alcotest.(check bool) "no domain leaked" true
    (Array.for_all (fun r -> not r.PBoom.timed_out) o.results);
  Alcotest.(check bool) "peers stopped early, not at their budgets" true
    (o.results.(1).PBoom.steps < budget && o.results.(2).PBoom.steps < budget)

let test_watchdog_returns_partial_outcome () =
  Atomic.set hang_release false;
  let cfg : PHang.config =
    {
      ids = [| 1; 2; 3 |];
      inputs = [| (); (); () |];
      namings = Array.init 3 (fun _ -> Naming.identity 1);
      seed = 1;
    }
  in
  let o = PHang.run_decide ~watchdog_s:0.2 ~max_stall_retries:0 ~step_budget:1_000 cfg in
  (* run_decide returned at all: this call deadlocked in Domain.join
     before the watchdog existed. Release the leaked domain and wait for
     it to actually leave its blocking loop (event, not a timed sleep)
     so it terminates before the test binary exits. *)
  let exited = Atomic.get hang_exited in
  Atomic.set hang_release true;
  while Atomic.get hang_exited = exited do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "watchdog fired" true o.watchdog_fired;
  Alcotest.(check bool) "stuck domain synthesised as timed_out" true
    o.results.(0).PHang.timed_out;
  Alcotest.(check int) "exactly one domain was leaked" 1
    (Array.fold_left
       (fun acc r -> if r.PHang.timed_out then acc + 1 else acc)
       0 o.results);
  Alcotest.(check bool) "peers still decided" true
    (o.results.(1).PHang.output = Some 0 && o.results.(2).PHang.output = Some 0)

let test_stall_retry_recovers () =
  (* a step that stalls well past the patience window but resumes before
     the backoff budget runs out: the watchdog must NOT fire — the stall
     is absorbed by doubled-patience retries and the run completes *)
  Atomic.set hang_release false;
  let releaser =
    Domain.spawn (fun () ->
        Unix.sleepf 0.45;
        Atomic.set hang_release true)
  in
  let cfg : PHang.config =
    {
      ids = [| 1; 2; 3 |];
      inputs = [| (); (); () |];
      namings = Array.init 3 (fun _ -> Naming.identity 1);
      seed = 1;
    }
  in
  (* patience 0.2s with an explicit 4-retry budget: abandonment needs a
     multi-second stall, so even a heavily loaded machine that delays the
     0.45s releaser cannot flip this into a spurious watchdog fire (the
     old default-retry budget left only ~0.35s of slack) *)
  let o =
    PHang.run_decide ~watchdog_s:0.2 ~max_stall_retries:4 ~step_budget:1_000
      cfg
  in
  Domain.join releaser;
  Alcotest.(check bool) "watchdog did not fire" false o.watchdog_fired;
  Alcotest.(check bool) "no domain abandoned" true
    (Array.for_all (fun r -> not r.PHang.timed_out) o.results);
  Alcotest.(check (option int)) "stalled domain recovered and decided"
    (Some 0) o.results.(0).PHang.output;
  Alcotest.(check bool) "the stall consumed retries" true
    (o.results.(0).PHang.stall_retries >= 1);
  Alcotest.(check bool) "healthy peers consumed none" true
    (o.results.(1).PHang.stall_retries = 0
    && o.results.(2).PHang.stall_retries = 0)

let test_stall_retries_bounded () =
  (* a genuinely dead step exhausts the bounded retry budget and still
     ends in the watchdog's partial-outcome path *)
  Atomic.set hang_release false;
  let cfg : PHang.config =
    {
      ids = [| 1; 2; 3 |];
      inputs = [| (); (); () |];
      namings = Array.init 3 (fun _ -> Naming.identity 1);
      seed = 1;
    }
  in
  let o =
    PHang.run_decide ~watchdog_s:0.1 ~max_stall_retries:1 ~step_budget:1_000
      cfg
  in
  let exited = Atomic.get hang_exited in
  Atomic.set hang_release true;
  while Atomic.get hang_exited = exited do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "watchdog fired after bounded retries" true
    o.watchdog_fired;
  Alcotest.(check bool) "dead domain abandoned" true
    o.results.(0).PHang.timed_out;
  Alcotest.(check int) "exactly the granted retries recorded" 1
    o.results.(0).PHang.stall_retries

let test_injected_crash_survivors_decide () =
  let rng = Rng.create 11 in
  let cfg : PCons.config =
    {
      ids = [| 7; 13; 21 |];
      inputs = [| 100; 200; 300 |];
      namings = namings_of rng 3 5;
      seed = 2;
    }
  in
  let faults =
    { PCons.crash_at = [| Some 5; None; None |]; pause_prob = 0.001 }
  in
  let o = PCons.run_decide ~faults cfg in
  Alcotest.(check bool) "victim crashed without deciding" true
    (o.results.(0).PCons.crashed && o.results.(0).PCons.output = None);
  let decided =
    Array.to_list o.results |> List.filter_map (fun r -> r.PCons.output)
  in
  Alcotest.(check bool) "a survivor decided" true (decided <> []);
  (match decided with
  | [] -> ()
  | v :: rest ->
    List.iter (fun w -> Alcotest.(check int) "agreement survives" v w) rest;
    Alcotest.(check bool) "validity survives" true
      (List.mem v [ 100; 200; 300 ]))

let suite =
  [
    Alcotest.test_case "consensus across domains" `Slow test_consensus_domains;
    Alcotest.test_case "renaming across domains" `Slow test_renaming_domains;
    Alcotest.test_case "mutex sessions across domains" `Slow
      test_mutex_domains;
    Alcotest.test_case "choice coordination across domains" `Slow
      test_ccp_domains;
    Alcotest.test_case "final memory snapshot" `Quick
      test_memory_snapshot_consistent;
    Alcotest.test_case "escaped exception degrades gracefully" `Slow
      test_escaped_exception_degrades_gracefully;
    Alcotest.test_case "watchdog returns a partial outcome" `Slow
      test_watchdog_returns_partial_outcome;
    Alcotest.test_case "stalled step recovers via backoff retries" `Slow
      test_stall_retry_recovers;
    Alcotest.test_case "retry budget is bounded" `Slow
      test_stall_retries_bounded;
    Alcotest.test_case "injected crash: survivors decide" `Slow
      test_injected_crash_survivors_decide;
  ]
