type me_violation = { state : int; procs : int * int }

type df_violation = { states : int list; trying : int list }

let status_at (g : Flatgraph.t) v p = Char.code (Bytes.get g.status ((v * g.n_procs) + p))
let trying = Flatgraph.code Try
let crit = Flatgraph.code Crit
let exiting = Flatgraph.code Exit
let is_active s = s = trying || s = crit || s = exiting

(* The highest process at or below [p] that is critical in [v], or -1. *)
let rec highest_crit g v p =
  if p < 0 || status_at g v p = crit then p else highest_crit g v (p - 1)

(* The first state with two critical processes, reported as its two highest
   ones in increasing order. *)
let mutual_exclusion (g : Flatgraph.t) =
  let n = Flatgraph.n_states g in
  let rec scan v =
    if v >= n then None
    else
      let hi = highest_crit g v (g.n_procs - 1) in
      let lo = if hi < 0 then -1 else highest_crit g v (hi - 1) in
      if lo >= 0 then Some { state = v; procs = (lo, hi) } else scan (v + 1)
  in
  scan 0

(* States [lo..hi-1] of [order] as a list, in decreasing order. *)
let member_list order lo hi =
  List.sort (fun a b -> Int.compare b a) (Array.to_list (Array.sub order lo (hi - lo)))

(* Core fair-cycle search by strong-fairness refinement.

   We look for an SCC, in the subgraph induced by the [alive] states and
   the edges [edges] keeps, around which a run can cycle forever legally:
   every process that is active in some member state takes a step inside
   the SCC (processes never fail, and critical/exiting processes are
   obliged to move). An SCC containing a state where some obliged process
   can never step is shrunk by removing those states, and the search
   repeats until stable. Stable fair SCCs are violations (when
   [need_trying], only those where someone is trying); the first one found,
   in Tarjan's order, is returned as its member states. *)
let find_fair_cycle (g : Flatgraph.t) ~alive ~edges ~need_trying =
  let n_procs = g.n_procs in
  let { Flatgraph.mask; skip } = edges in
  let stepping = Array.make n_procs false in
  let active = Array.make n_procs false in
  let rec iterate () =
    let scc = Scc.compute ~alive ~edges g in
    let order = scc.order in
    let changed = ref false in
    let found = ref None in
    for c = 0 to scc.count - 1 do
      let lo = scc.first.(c) and hi = scc.first.(c + 1) in
      Array.fill stepping 0 n_procs false;
      let has_edge = ref false in
      for i = lo to hi - 1 do
        let v = order.(i) in
        for e = Int32.to_int g.offsets.{v} to Int32.to_int g.offsets.{v + 1} - 1 do
          let l = Char.code (Bytes.get g.labels e) in
          if l land mask <> skip && scc.component.(Int32.to_int g.dsts.{e}) = c
          then begin
            has_edge := true;
            stepping.(l lsr 1) <- true
          end
        done
      done;
      if !has_edge then begin
        Array.fill active 0 n_procs false;
        let any_trying = ref false in
        for i = lo to hi - 1 do
          for p = 0 to n_procs - 1 do
            let s = status_at g order.(i) p in
            if is_active s then active.(p) <- true;
            if s = trying then any_trying := true
          done
        done;
        (* [active] now marks the processes that are obliged to step but
           never do *)
        let fair = ref true in
        for p = 0 to n_procs - 1 do
          if stepping.(p) then active.(p) <- false;
          if active.(p) then fair := false
        done;
        if !fair then begin
          if !found = None && ((not need_trying) || !any_trying) then
            found := Some (member_list order lo hi)
        end
        else
          for i = lo to hi - 1 do
            let v = order.(i) in
            for p = 0 to n_procs - 1 do
              if active.(p) && is_active (status_at g v p) then begin
                Bytes.set alive v '\000';
                changed := true
              end
            done
          done
      end
    done;
    match !found with
    | Some members -> Some members
    | None -> if !changed then iterate () else None
  in
  iterate ()

let trying_in (g : Flatgraph.t) members =
  List.filter
    (fun p -> List.exists (fun v -> status_at g v p = trying) members)
    (List.init g.n_procs Fun.id)

(* Deadlock-freedom: no fair cycle avoiding every CS entry while someone is
   trying. *)
let deadlock_freedom (g : Flatgraph.t) =
  find_fair_cycle g
    ~alive:(Bytes.make (Flatgraph.n_states g) '\001')
    ~edges:Flatgraph.no_entry ~need_trying:true
  |> Option.map (fun members -> { states = members; trying = trying_in g members })

(* Starvation-freedom for process [p]: no fair cycle in which p is trying
   throughout and only p's own CS entries are forbidden — other processes
   may enter and leave their critical sections along the cycle. *)
let starves (g : Flatgraph.t) p =
  let alive =
    Bytes.init (Flatgraph.n_states g) (fun v ->
        if status_at g v p = trying then '\001' else '\000')
  in
  find_fair_cycle g ~alive ~edges:(Flatgraph.no_entry_by p) ~need_trying:false
  |> Option.map (fun members -> { states = members; trying = [ p ] })

let starvation_freedom (g : Flatgraph.t) =
  let rec go p =
    if p >= g.n_procs then None
    else
      match starves g p with
      | Some v -> Some (p, v)
      | None -> go (p + 1)
  in
  go 0
