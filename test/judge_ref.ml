(* The list-based judge the CSR checkers replaced, kept as the reference
   for the differential tests: Tarjan over successor lists with tuple
   frames, and the strong-fairness refinement over a graph of status
   arrays and transition lists. Same algorithm, vertex order and edge
   order as [Check.Scc] and [Check.Mutex_props], so verdicts and witnesses
   must agree element for element. *)

open Check

type graph = {
  n_procs : int;
  statuses : Flatgraph.proc_status array array;  (** [statuses.(state).(proc)] *)
  succs : Flatgraph.trans list array;
}

let to_flat g = Flatgraph.of_lists ~n_procs:g.n_procs g.statuses g.succs

module Scc = struct
  type t = { count : int; component : int array }

  (* Iterative Tarjan. The explicit stack holds (vertex, remaining successor
     list) frames; [index] doubles as the visited marker (-1 = unvisited). *)
  let compute ~n ~succs =
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let stack = ref [] in
    let next_index = ref 0 in
    let component = Array.make n (-1) in
    let comp_count = ref 0 in
    let rec_stack = Stack.create () in
    let open_vertex v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      stack := v :: !stack;
      on_stack.(v) <- true;
      Stack.push (v, succs v) rec_stack
    in
    let close_vertex v =
      if lowlink.(v) = index.(v) then begin
        let c = !comp_count in
        incr comp_count;
        let rec pop () =
          match !stack with
          | [] -> assert false
          | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            component.(w) <- c;
            if w <> v then pop ()
        in
        pop ()
      end
    in
    for root = 0 to n - 1 do
      if index.(root) = -1 then begin
        open_vertex root;
        while not (Stack.is_empty rec_stack) do
          let v, pending = Stack.pop rec_stack in
          match pending with
          | [] -> (
            close_vertex v;
            match Stack.top_opt rec_stack with
            | Some (p, _) -> lowlink.(p) <- min lowlink.(p) lowlink.(v)
            | None -> ())
          | w :: rest ->
            Stack.push (v, rest) rec_stack;
            if index.(w) = -1 then open_vertex w
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        done
      end
    done;
    { count = !comp_count; component }

  let components t =
    let buckets = Array.make t.count [] in
    Array.iteri (fun v c -> buckets.(c) <- v :: buckets.(c)) t.component;
    buckets
end

let mutual_exclusion g =
  let exception Found of Mutex_props.me_violation in
  try
    Array.iteri
      (fun sid statuses ->
        let crit = ref [] in
        Array.iteri
          (fun p s -> if s = Flatgraph.Crit then crit := p :: !crit)
          statuses;
        match !crit with
        | p :: q :: _ -> raise (Found { state = sid; procs = (q, p) })
        | _ -> ())
      g.statuses;
    None
  with Found v -> Some v

let is_active = function
  | Flatgraph.Try | Crit | Exit -> true
  | Rem | Done -> false

let find_fair_cycle g ~state_ok ~edge_ok ~interesting =
  let n_states = Array.length g.statuses in
  let alive = Array.init n_states state_ok in
  let internal_succs v =
    if not alive.(v) then []
    else
      List.filter_map
        (fun (t : Flatgraph.trans) ->
          if edge_ok t && alive.(t.dst) then Some t.dst else None)
        g.succs.(v)
  in
  let rec iterate () =
    let scc = Scc.compute ~n:n_states ~succs:internal_succs in
    let comps = Scc.components scc in
    let changed = ref false in
    let found = ref None in
    let examine members =
      match List.filter (fun v -> alive.(v)) members with
      | [] -> ()
      | first :: _ as members ->
        let comp_id = scc.component.(first) in
        let stepping = Array.make g.n_procs false in
        let has_edge = ref false in
        List.iter
          (fun v ->
            List.iter
              (fun (t : Flatgraph.trans) ->
                if edge_ok t && alive.(t.dst) && scc.component.(t.dst) = comp_id
                then begin
                  has_edge := true;
                  stepping.(t.proc) <- true
                end)
              g.succs.(v))
          members;
        if !has_edge then begin
          let missing p =
            (not stepping.(p))
            && List.exists (fun v -> is_active g.statuses.(v).(p)) members
          in
          match List.filter missing (List.init g.n_procs Fun.id) with
          | [] ->
            if !found = None && interesting members then found := Some members
          | missing_procs ->
            List.iter
              (fun v ->
                if List.exists (fun p -> is_active g.statuses.(v).(p)) missing_procs
                then begin
                  alive.(v) <- false;
                  changed := true
                end)
              members
        end
    in
    Array.iter examine comps;
    match !found with
    | Some members -> Some members
    | None -> if !changed then iterate () else None
  in
  iterate ()

let trying_in g members =
  List.filter
    (fun p -> List.exists (fun v -> g.statuses.(v).(p) = Flatgraph.Try) members)
    (List.init g.n_procs Fun.id)

let deadlock_freedom g : Mutex_props.df_violation option =
  find_fair_cycle g
    ~state_ok:(fun _ -> true)
    ~edge_ok:(fun t -> not t.enters_cs)
    ~interesting:(fun members -> trying_in g members <> [])
  |> Option.map (fun members ->
         { Mutex_props.states = members; trying = trying_in g members })

let starves g p : Mutex_props.df_violation option =
  find_fair_cycle g
    ~state_ok:(fun v -> g.statuses.(v).(p) = Flatgraph.Try)
    ~edge_ok:(fun t -> not (t.proc = p && t.enters_cs))
    ~interesting:(fun _ -> true)
  |> Option.map (fun members -> { Mutex_props.states = members; trying = [ p ] })

let starvation_freedom g =
  let rec go p =
    if p >= g.n_procs then None
    else match starves g p with Some v -> Some (p, v) | None -> go (p + 1)
  in
  go 0
