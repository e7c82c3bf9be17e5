open Anonmem

exception Killed of { domain : int }
exception Io_fault of { op : string }

type fault =
  | Kill_domain of { domain : int; after_ticks : int }
  | Stall_domain of { domain : int; after_ticks : int; for_s : float }
  | Torn_write of { nth_write : int; keep : float }
  | Flip_byte of { nth_write : int; at : float }
  | Alloc_fail of { after_boundaries : int }
  | Short_write of { nth_io : int; keep : float }
  | Io_error of { nth_io : int }
  | Disk_full of { after_bytes : int }
  | Fsync_fail of { nth_sync : int }

type plan = { seed : int; faults : fault list }

let pp_fault ppf = function
  | Kill_domain { domain; after_ticks } ->
    Format.fprintf ppf "kill d%d@@t%d" domain after_ticks
  | Stall_domain { domain; after_ticks; for_s } ->
    Format.fprintf ppf "stall d%d@@t%d (%.3fs)" domain after_ticks for_s
  | Torn_write { nth_write; keep } ->
    Format.fprintf ppf "tear w%d (keep %.0f%%)" nth_write (100. *. keep)
  | Flip_byte { nth_write; at } ->
    Format.fprintf ppf "flip w%d@@%.0f%%" nth_write (100. *. at)
  | Alloc_fail { after_boundaries } ->
    Format.fprintf ppf "alloc g%d" after_boundaries
  | Short_write { nth_io; keep } ->
    Format.fprintf ppf "short io%d (keep %.0f%%)" nth_io (100. *. keep)
  | Io_error { nth_io } -> Format.fprintf ppf "eio io%d" nth_io
  | Disk_full { after_bytes } ->
    Format.fprintf ppf "enospc b%d" after_bytes
  | Fsync_fail { nth_sync } -> Format.fprintf ppf "efsync s%d" nth_sync

let pp_plan ppf { seed; faults } =
  Format.fprintf ppf "%a (seed %d)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       pp_fault)
    faults seed

let plan_of_seed ?(domains = 4) ?(intensity = 4) ?(disk = false) seed =
  let rng = Rng.create (0x5EED + (seed * 2654435761)) in
  let domains = max 1 domains in
  let pick_domain () = Rng.int rng domains in
  let n = max 1 intensity in
  (* [disk = false] keeps the draw sequence of older plans byte-for-byte,
     so every seed recorded in CI logs replays the same faults it did. *)
  let faults =
    List.init n (fun _ ->
        match Rng.int rng (if disk then 9 else 5) with
        | 0 ->
          Kill_domain
            { domain = pick_domain (); after_ticks = 1 + Rng.int rng 24 }
        | 1 ->
          Stall_domain
            {
              domain = pick_domain ();
              after_ticks = 1 + Rng.int rng 24;
              for_s = 0.01 +. (0.04 *. Rng.float rng);
            }
        | 2 ->
          Torn_write
            { nth_write = 1 + Rng.int rng 4; keep = Rng.float rng }
        | 3 -> Flip_byte { nth_write = 1 + Rng.int rng 4; at = Rng.float rng }
        | 4 -> Alloc_fail { after_boundaries = 1 + Rng.int rng 12 }
        | 5 -> Short_write { nth_io = 1 + Rng.int rng 6; keep = Rng.float rng }
        | 6 -> Io_error { nth_io = 1 + Rng.int rng 6 }
        | 7 -> Disk_full { after_bytes = 256 + Rng.int rng 16384 }
        | _ -> Fsync_fail { nth_sync = 1 + Rng.int rng 6 })
  in
  { seed; faults }

(* Armed state. All counters live behind one mutex: injection points are
   called from every worker domain, and the disarmed fast path must stay
   a single atomic load. *)
type armed_state = {
  plan : plan;
  mutable left : fault list;  (* unfired faults *)
  mutable n_fired : int;
  ticks : (int, int) Hashtbl.t;  (* per-domain tick counters *)
  mutable boundaries : int;
  mutable writes : int;
  mutable ios : int;  (* disk write operations *)
  mutable io_bytes : int;  (* cumulative bytes offered to the disk *)
  mutable syncs : int;  (* fsync operations *)
  lock : Mutex.t;
}

let state : armed_state option Atomic.t = Atomic.make None

let arm plan =
  Atomic.set state
    (Some
       {
         plan;
         left = plan.faults;
         n_fired = 0;
         ticks = Hashtbl.create 8;
         boundaries = 0;
         writes = 0;
         ios = 0;
         io_bytes = 0;
         syncs = 0;
         lock = Mutex.create ();
       })

let disarm () = Atomic.set state None
let armed () = Atomic.get state <> None

let with_state f =
  match Atomic.get state with
  | None -> None
  | Some s ->
    Mutex.lock s.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) (fun () -> Some (f s))

let fired () =
  match with_state (fun s -> s.n_fired) with Some n -> n | None -> 0

let pending () =
  match with_state (fun s -> s.left) with Some l -> l | None -> []

let has_disk_faults () =
  match
    with_state (fun s ->
        List.exists
          (function
            | Short_write _ | Io_error _ | Disk_full _ | Fsync_fail _ -> true
            | _ -> false)
          s.left)
  with
  | Some b -> b
  | None -> false

(* Remove matured faults matching [matches] from [s.left], count them as
   fired, and return them (oldest first). *)
let take s matches =
  let hit, rest = List.partition matches s.left in
  s.left <- rest;
  s.n_fired <- s.n_fired + List.length hit;
  hit

let tick ~kills ~domain =
  match Atomic.get state with
  | None -> ()
  | Some _ -> (
    let matured =
      with_state (fun s ->
          let t = 1 + (try Hashtbl.find s.ticks domain with Not_found -> 0) in
          Hashtbl.replace s.ticks domain t;
          take s (function
            | Kill_domain { domain = d; after_ticks } ->
              kills && d = domain && after_ticks <= t
            | Stall_domain { domain = d; after_ticks; _ } ->
              d = domain && after_ticks <= t
            | _ -> false))
    in
    match matured with
    | None | Some [] -> ()
    | Some faults ->
      (* sleep outside the lock; a kill wins over a same-tick stall *)
      List.iter
        (function
          | Stall_domain { for_s; _ } -> Unix.sleepf for_s | _ -> ())
        faults;
      if List.exists (function Kill_domain _ -> true | _ -> false) faults
      then raise (Killed { domain }))

let worker_tick ~domain = tick ~kills:true ~domain
let stall_tick ~domain = tick ~kills:false ~domain

let boundary_tick () =
  match Atomic.get state with
  | None -> ()
  | Some _ -> (
    match
      with_state (fun s ->
          s.boundaries <- s.boundaries + 1;
          take s (function
            | Alloc_fail { after_boundaries } -> after_boundaries <= s.boundaries
            | _ -> false))
    with
    | None | Some [] -> ()
    | Some _ -> raise Out_of_memory)

let mutate_write payload =
  match Atomic.get state with
  | None -> None
  | Some _ -> (
    match
      with_state (fun s ->
          s.writes <- s.writes + 1;
          take s (function
            | Torn_write { nth_write; _ } | Flip_byte { nth_write; _ } ->
              nth_write = s.writes
            | _ -> false))
    with
    | None | Some [] -> None
    | Some faults ->
      let damaged =
        List.fold_left
          (fun p f ->
            match f with
            | Torn_write { keep; _ } ->
              String.sub p 0
                (int_of_float (keep *. float_of_int (String.length p)))
            | Flip_byte { at; _ } when String.length p > 0 ->
              let i =
                min
                  (String.length p - 1)
                  (int_of_float (at *. float_of_int (String.length p)))
              in
              let b = Bytes.of_string p in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
              Bytes.to_string b
            | _ -> p)
          payload faults
      in
      Some damaged)

let io_write payload =
  match Atomic.get state with
  | None -> payload
  | Some _ -> (
    match
      with_state (fun s ->
          s.ios <- s.ios + 1;
          s.io_bytes <- s.io_bytes + String.length payload;
          take s (function
            | Short_write { nth_io; _ } | Io_error { nth_io } ->
              nth_io = s.ios
            | Disk_full { after_bytes } -> after_bytes <= s.io_bytes
            | _ -> false))
    with
    | None | Some [] -> payload
    | Some faults ->
      if List.exists (function Io_error _ -> true | _ -> false) faults then
        raise (Io_fault { op = "write: input/output error" });
      if List.exists (function Disk_full _ -> true | _ -> false) faults then
        raise (Io_fault { op = "write: no space left on device" });
      List.fold_left
        (fun p f ->
          match f with
          | Short_write { keep; _ } ->
            String.sub p 0
              (int_of_float (keep *. float_of_int (String.length p)))
          | _ -> p)
        payload faults)

let io_sync () =
  match Atomic.get state with
  | None -> ()
  | Some _ -> (
    match
      with_state (fun s ->
          s.syncs <- s.syncs + 1;
          take s (function
            | Fsync_fail { nth_sync } -> nth_sync = s.syncs
            | _ -> false))
    with
    | None | Some [] -> ()
    | Some _ -> raise (Io_fault { op = "fsync: input/output error" }))
