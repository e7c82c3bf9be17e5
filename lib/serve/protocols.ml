open Anonmem

let str = Printf.sprintf

module type ENTRY = sig
  module P : Protocol.PROTOCOL

  val inputs : n:int -> P.input array
  val explore_inputs : n:int -> P.input array
  val verdicts : Check.Explore.Make(P).graph -> (string * bool) list
  val fuzz_properties : Check.Fuzz.Make(P).property list
  val gen_inputs : Rng.t -> n:int -> P.input array
  val deterministic : bool
  val twin : (Check.Gen.params -> P.input array -> string option) option
  val input_to_string : P.input -> string
  val input_of_string : string -> P.input
  val hunt_violation : Check.Hunt.Make(P).R.t -> bool
end

let ids ~n = Array.init n (fun i -> ((i + 1) * 17) + 1)

let namings_under_test ~n ~m =
  if n = 2 && m <= 5 then
    List.map (fun nm -> [| Naming.identity m; nm |]) (Naming.all m)
  else [ Array.init n (fun k -> Naming.rotation m k) ]

let member xs v = Array.exists (( = ) v) xs

(* ------------------------------------------------------------------ *)
(* baseline twins                                                      *)
(* ------------------------------------------------------------------ *)

(* Served fuzz jobs of one protocol may run on several domains at once,
   so the twins' memo tables are locked. *)
let memo f =
  let tbl = Hashtbl.create 8 and lock = Mutex.create () in
  fun key ->
    match Mutex.protect lock (fun () -> Hashtbl.find_opt tbl key) with
    | Some r -> r
    | None ->
      let r = f key in
      Mutex.protect lock (fun () -> Hashtbl.replace tbl key r);
      r

(* Explore a baseline's identity-named instance and judge it with the
   fuzz property code; a complaint indicts that code. *)
module Twin (B : Protocol.PROTOCOL) = struct
  module F = Check.Fuzz.Make (B)

  let complaint ~what ~m ~ids ~inputs props =
    let n = Array.length ids in
    let g =
      F.E.explore ~max_states:50_000
        { ids; inputs; namings = Array.init n (fun _ -> Naming.identity m) }
    in
    if not g.F.E.complete then None (* budget: inconclusive, not a bug *)
    else
      let flat = F.E.to_flat g in
      List.find_map
        (fun (label, (p : F.property)) ->
          if p.F.check g flat <> None then
            Some (str "checker claims %s violates %s" what label)
          else None)
        props
end

module Peterson_twin = Twin (Baseline.Peterson.P)
module Ca_twin = Twin (Baseline.Ca_consensus.P)
module Chain_twin = Twin (Baseline.Chain_renaming.P)

let peterson_twin =
  let verdict =
    memo (fun () ->
        Peterson_twin.(
          complaint ~what:"Peterson" ~m:3 ~ids:[| 1; 2 |] ~inputs:[| (); () |]
            [
              ("mutual exclusion", F.mutex_me);
              ("deadlock freedom", F.mutex_df);
            ]))
  in
  fun _ _ -> verdict ()

let ca_consensus_twin =
  let verdict =
    memo (fun (n, inputs) ->
        Ca_twin.(
          complaint ~what:"CA consensus"
            ~m:(Baseline.Ca_consensus.P.registers_for ~n ~rounds:2)
            ~ids:(Array.init n (fun i -> i + 1))
            ~inputs:(Array.of_list inputs)
            [
              ("agreement", F.agreement ~equal:Int.equal);
              ("validity", F.validity ~allowed:member);
            ]))
  in
  fun (pars : Check.Gen.params) inputs ->
    verdict (pars.Check.Gen.n, Array.to_list inputs)

let chain_renaming_twin =
  let verdict =
    memo (fun n ->
        Chain_twin.(
          complaint ~what:"chain renaming"
            ~m:((n - 1) * ((2 * n) - 1))
            ~ids:(ids ~n) ~inputs:(Array.make n ())
            [ ("uniqueness", F.distinct_outputs ~equal:Int.equal) ]))
  in
  fun (pars : Check.Gen.params) _ -> verdict pars.Check.Gen.n

(* ------------------------------------------------------------------ *)
(* entries                                                             *)
(* ------------------------------------------------------------------ *)

module Unit_inputs = struct
  let inputs ~n = Array.make n ()
  let explore_inputs = inputs
  let gen_inputs _ ~n = Array.make n ()
  let input_to_string () = "-"

  let input_of_string = function
    | "-" -> ()
    | s -> failwith (str "expected unit input \"-\", got %S" s)
end

let mutex_verdicts flat =
  [
    ("mutual-exclusion", Check.Mutex_props.mutual_exclusion flat = None);
    ("deadlock-freedom", Check.Mutex_props.deadlock_freedom flat = None);
  ]

module Amutex = struct
  module P = Coord.Amutex.P
  module E = Check.Explore.Make (P)
  module F = Check.Fuzz.Make (P)
  module H = Check.Hunt.Make (P)
  include Unit_inputs

  let verdicts g = mutex_verdicts (E.to_flat g)
  let fuzz_properties = [ F.mutex_me; F.mutex_df ]
  let deterministic = true
  let twin = Some peterson_twin
  let hunt_violation = H.mutex_violation
end

module Cmp_mutex = struct
  module P = Coord.Cmp_mutex.P
  module E = Check.Explore.Make (P)
  module F = Check.Fuzz.Make (P)
  module H = Check.Hunt.Make (P)
  include Unit_inputs

  let verdicts g = mutex_verdicts (E.to_flat g)
  let fuzz_properties = [ F.mutex_me; F.mutex_df ]
  let deterministic = true
  let twin = None
  let hunt_violation = H.mutex_violation
end

module Consensus = struct
  module P = Coord.Consensus.P
  module E = Check.Explore.Make (P)
  module F = Check.Fuzz.Make (P)
  module H = Check.Hunt.Make (P)

  let inputs ~n = Array.init n (fun i -> (i + 1) * 100)
  let explore_inputs ~n = Array.make n 42

  let verdicts (g : E.graph) =
    let statuses = E.statuses and states = g.E.states in
    [
      ( "agreement",
        Check.Props.agreement ~equal:Int.equal ~statuses states = None );
      ( "validity",
        Check.Props.validity ~allowed:(member g.E.cfg.inputs) ~statuses states
        = None );
      ("of-termination", E.check_obstruction_freedom g = None);
    ]

  let fuzz_properties =
    [ F.agreement ~equal:Int.equal; F.validity ~allowed:member ]

  let gen_inputs rng ~n = Array.init n (fun _ -> 100 * (1 + Rng.int rng n))
  let deterministic = true
  let twin = Some ca_consensus_twin
  let input_to_string = string_of_int
  let input_of_string = int_of_string
  let hunt_violation = H.disagreement ~equal:Int.equal
end

module Election = struct
  module P = Coord.Election.P
  module E = Check.Explore.Make (P)
  module F = Check.Fuzz.Make (P)
  module H = Check.Hunt.Make (P)
  include Unit_inputs

  let verdicts (g : E.graph) =
    let statuses = E.statuses and states = g.E.states in
    [
      ( "one-leader",
        Check.Props.agreement ~equal:Int.equal ~statuses states = None );
      ( "leader-participates",
        Check.Props.validity ~allowed:(member g.E.cfg.ids) ~statuses states
        = None );
      ("of-termination", E.check_obstruction_freedom g = None);
    ]

  (* leader-participates needs the instance's ids on both the graph and
     the runtime side, so it is built here rather than in Check.Fuzz *)
  let fuzz_properties =
    [
      { (F.agreement ~equal:Int.equal) with F.name = "one-leader" };
      {
        F.name = "leader-participates";
        check =
          (fun g _ ->
            Option.map
              (fun (d : int Check.Props.decided) -> F.State d.Check.Props.state)
              (Check.Props.validity ~allowed:(member g.F.E.cfg.ids)
                 ~statuses:F.E.statuses g.F.E.states));
        rt_check =
          Some
            (fun _ rt ->
              let ds = F.S.R.decisions rt in
              let ids = Array.init (Array.length ds) (F.S.R.id_of rt) in
              Array.exists
                (function Some v -> not (member ids v) | None -> false)
                ds);
      };
    ]

  let deterministic = true
  let twin = None
  let hunt_violation = H.disagreement ~equal:Int.equal
end

module Renaming = struct
  module P = Coord.Renaming.P
  module E = Check.Explore.Make (P)
  module F = Check.Fuzz.Make (P)
  module H = Check.Hunt.Make (P)
  include Unit_inputs

  let verdicts (g : E.graph) =
    let statuses = E.statuses and states = g.E.states in
    [
      ( "uniqueness",
        Check.Props.distinct_outputs ~equal:Int.equal ~statuses states = None
      );
      ( "adaptivity",
        Check.Props.adaptive_range ~name_of:Fun.id ~statuses states = None );
      ("of-termination", E.check_obstruction_freedom g = None);
    ]

  let fuzz_properties =
    [ { (F.distinct_outputs ~equal:Int.equal) with F.name = "uniqueness" } ]

  let deterministic = true
  let twin = Some chain_renaming_twin

  (* uniqueness: a violation is two EQUAL decided names. [disagreement]
     fires on a pair the predicate calls non-equal, so handing it (<>) as
     "equal" makes it fire exactly on duplicates. *)
  let hunt_violation = H.disagreement ~equal:(fun a b -> a <> b)
end

(* ccp decides a local register index; correctness is that all decisions
   resolve to the same physical register through each process's naming. *)
let split_register ~n ~naming ~status =
  let phys =
    List.filter_map
      (fun i ->
        match status i with
        | Protocol.Decided loc -> Some (Naming.apply (naming i) loc)
        | _ -> None)
      (List.init n Fun.id)
  in
  match phys with a :: rest -> List.exists (( <> ) a) rest | [] -> false

module Ccp = struct
  module P = Coord.Ccp.P
  module E = Check.Explore.Make (P)
  module F = Check.Fuzz.Make (P)
  module H = Check.Hunt.Make (P)
  include Unit_inputs

  let split_state namings statuses =
    split_register ~n:(Array.length statuses) ~naming:(Array.get namings)
      ~status:(Array.get statuses)

  let verdicts (g : E.graph) =
    [
      ( "same-register",
        not
          (Array.exists
             (fun st -> split_state g.E.cfg.namings (E.statuses st))
             g.E.states) );
    ]

  let fuzz_properties =
    [
      {
        F.name = "same-register";
        check =
          (fun g _ ->
            Option.map
              (fun si -> F.State si)
              (Array.find_index
                 (fun st -> split_state g.F.E.cfg.namings (F.E.statuses st))
                 g.F.E.states));
        rt_check =
          Some
            (fun _ rt ->
              split_register ~n:(F.S.R.n rt) ~naming:(F.S.R.naming_of rt)
                ~status:(F.S.R.status rt));
      };
    ]

  let deterministic = false
  let twin = None

  let hunt_violation rt =
    split_register ~n:(H.R.n rt) ~naming:(H.R.naming_of rt)
      ~status:(H.R.status rt)
end

let find : Spec.proto -> (module ENTRY) = function
  | Spec.Mutex -> (module Amutex)
  | Spec.Cmp_mutex -> (module Cmp_mutex)
  | Spec.Consensus -> (module Consensus)
  | Spec.Election -> (module Election)
  | Spec.Renaming -> (module Renaming)
  | Spec.Ccp -> (module Ccp)
