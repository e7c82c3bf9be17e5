type status =
  | Queued
  | Yielded
  | Finished of Runner.outcome
  | Crashed of string
  | Cancelled

type job = {
  id : int;
  spec : Spec.t;
  snapshot : string;
  mutable status : status;
  mutable progress : Runner.progress;
  mutable slices : int;
  mutable recoveries : int;
  mutable ticket : int;
  mutable ran_s : float;
}

type t = {
  state_dir : string;
  workers : int;
  quantum : int;
  max_retries : int;
  cache : Cache.t;
  mutable next_id : int;
  mutable next_ticket : int;
  mutable order : int list;  (* submission order, rev *)
  tbl : (int, job) Hashtbl.t;
  mutable explored : int;
}

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let create ?(workers = 1) ?(quantum = 50_000) ?(max_retries = 6) ?cache
    ~state_dir () =
  ensure_dir state_dir;
  {
    state_dir;
    workers = max 1 workers;
    quantum = max 1 quantum;
    max_retries;
    cache = (match cache with Some c -> c | None -> Cache.create ());
    next_id = 0;
    next_ticket = 0;
    order = [];
    tbl = Hashtbl.create 16;
    explored = 0;
  }

let fresh_ticket t =
  let k = t.next_ticket in
  t.next_ticket <- k + 1;
  k

let submit t spec =
  let id = t.next_id in
  t.next_id <- id + 1;
  let job =
    {
      id;
      spec;
      snapshot = Filename.concat t.state_dir (Printf.sprintf "job-%d.snap" id);
      status = Queued;
      progress = Runner.start;
      slices = 0;
      recoveries = 0;
      ticket = fresh_ticket t;
      ran_s = 0.0;
    }
  in
  Hashtbl.replace t.tbl id job;
  t.order <- id :: t.order;
  id

let job t id = Hashtbl.find_opt t.tbl id
let jobs t = List.rev_map (fun id -> Hashtbl.find t.tbl id) t.order

let remove_snapshot j =
  try Sys.remove j.snapshot with Sys_error _ -> ()

let cancel t id =
  match job t id with
  | Some j when j.status = Queued || j.status = Yielded ->
    j.status <- Cancelled;
    remove_snapshot j;
    true
  | _ -> false

let runnable t =
  jobs t
  |> List.filter (fun j -> j.status = Queued || j.status = Yielded)
  |> List.stable_sort (fun a b ->
         match compare b.spec.Spec.priority a.spec.Spec.priority with
         | 0 -> compare a.ticket b.ticket
         | c -> c)
  |> List.map (fun j -> j.id)

let pending t =
  List.length
    (List.filter
       (fun j ->
         match j.status with
         | Queued | Yielded -> true
         | Finished _ | Crashed _ | Cancelled -> false)
       (jobs t))

let transient_message = function
  | Resilience.Killed { domain } ->
    Printf.sprintf "worker domain %d killed" domain
  | Resilience.Io_fault { op } -> Printf.sprintf "i/o fault during %s" op
  | Out_of_memory -> "out of memory"
  | Check.Snapshot.Error e -> Check.Snapshot.error_message e
  | e -> Printexc.to_string e

let run_one t (j : job) =
  let deadline_left_s =
    Option.map
      (fun d -> d -. j.ran_s)
      j.spec.Spec.deadline_s
  in
  let t0 = Check.Checker_stats.now () in
  let r =
    try
      `Slice
        (Runner.run_slice ~cache:t.cache ~quantum:t.quantum ?deadline_left_s
           ~salvage:(j.recoveries > 0) ~snapshot:j.snapshot j.spec j.progress)
    with
    | (Resilience.Killed _ | Resilience.Io_fault _
      | Out_of_memory
      | Check.Snapshot.Error _) as e ->
      `Transient e
    | e -> `Fatal e
  in
  (Check.Checker_stats.now () -. t0, r)

let apply t (j : job) (dt, r) =
  j.ran_s <- j.ran_s +. dt;
  j.slices <- j.slices + 1;
  let before = Runner.progress_explored j.progress in
  match r with
  | `Slice (Runner.Done o) ->
    t.explored <- t.explored + (o.Runner.explored - before);
    remove_snapshot j;
    j.status <- Finished o
  | `Slice (Runner.Yield p) ->
    t.explored <- t.explored + (Runner.progress_explored p - before);
    j.progress <- p;
    j.status <- Yielded;
    j.ticket <- fresh_ticket t
  | `Transient e ->
    j.recoveries <- j.recoveries + 1;
    if j.recoveries > t.max_retries then begin
      remove_snapshot j;
      j.status <- Crashed (transient_message e)
    end
    else begin
      j.progress <- Runner.after_crash ~snapshot:j.snapshot j.progress;
      j.status <- Yielded;
      j.ticket <- fresh_ticket t
    end
  | `Fatal e ->
    remove_snapshot j;
    j.status <- Crashed (Printexc.to_string e)

let step t =
  let picks =
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | id :: rest -> id :: take (k - 1) rest
    in
    take t.workers (runnable t)
    |> List.map (fun id -> Hashtbl.find t.tbl id)
  in
  match picks with
  | [] -> false
  | [ j ] ->
    apply t j (run_one t j);
    true
  | js when t.workers = 1 ->
    List.iter (fun j -> apply t j (run_one t j)) js;
    true
  | js ->
    (* one slice per domain; all bookkeeping back in the supervisor *)
    let handles =
      List.map (fun j -> (j, Domain.spawn (fun () -> run_one t j))) js
    in
    List.iter (fun (j, h) -> apply t j (Domain.join h)) handles;
    true

let drain t = while step t do () done
let explored t = t.explored
let cache t = t.cache
