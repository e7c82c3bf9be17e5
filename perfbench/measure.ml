(* Clocks, allocation counters, percentiles and in-memory spans: the
   arithmetic every workload of the benchmark shares. *)

let now = Unix.gettimeofday

(* ---------------------------------------------------------------- *)
(* allocation                                                        *)
(* ---------------------------------------------------------------- *)

type alloc = { minor : float; promoted : float; major : float }

(* [Gc.counters], not [Gc.quick_stat]: under OCaml 5 the latter lags the
   running domain's allocation until its next minor collection. *)
let alloc_now () =
  let minor, promoted, major = Gc.counters () in
  { minor; promoted; major }

(* Words allocated between two readings. A promoted word was counted once
   when allocated on the minor heap and again as a major-heap word, so it
   is subtracted once. *)
let allocated ~before ~after =
  after.minor -. before.minor
  +. (after.major -. before.major)
  -. (after.promoted -. before.promoted)

(* ---------------------------------------------------------------- *)
(* summaries                                                         *)
(* ---------------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A percentile is only reported when at least this many samples lie
   beyond it; otherwise it would be an extreme value in disguise. *)
let min_beyond = 10

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. [None] when fewer than [min_beyond] samples
   lie above that rank. *)
let percentile ~p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil ((p *. float n) -. 1e-9))) in
  if n = 0 || n - rank < min_beyond then None else Some a.(rank - 1)

let sum xs = List.fold_left ( +. ) 0.0 xs

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [segments ~min_work items] groups consecutive [(work, seconds)] items
   into segments of at least [min_work] work each, in order, and sums
   each; a remainder short of [min_work] joins the last segment. *)
let segments ~min_work items =
  let close (w, t) acc = if w > 0.0 then (w, t) :: acc else acc in
  let full, (w, t) =
    List.fold_left
      (fun (acc, (w, t)) (w', t') ->
        let w = w +. w' and t = t +. t' in
        if w >= min_work then ((w, t) :: acc, (0.0, 0.0)) else (acc, (w, t)))
      ([], (0.0, 0.0))
      items
  in
  List.rev
    (match full with
    | (lw, lt) :: rest when w > 0.0 -> (lw +. w, lt +. t) :: rest
    | _ -> close (w, t) full)

(* Work over time, summed over every segment. *)
let overall_rate segs = sum (List.map fst segs) /. sum (List.map snd segs)

(* The median of work / seconds over segments. *)
let median_rate segs = median (List.map (fun (w, t) -> w /. t) segs)

(* ---------------------------------------------------------------- *)
(* host reference                                                    *)
(* ---------------------------------------------------------------- *)

(* A fixed computation of the benchmark's own, no checker code: 40,000
   string keys hashed into a table and looked up again. Like the
   checker, it allocates, hashes and chases pointers, so other tenants
   of a shared host slow it about as much as they slow the checker. *)
let reference_work () =
  let h = Hashtbl.create 16 in
  for i = 1 to 40_000 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let s = ref 0 in
  for i = 1 to 40_000 do
    s := !s + Option.value ~default:0 (Hashtbl.find_opt h (string_of_int (i * 31)))
  done;
  !s

type host = { req : out_channel; rep : in_channel; pid : int }

(* The reference runs in a helper process, forked before the workload
   builds its heap and before any domain exists, so that its collections
   never scan the workload's heap. The caller blocks while it runs; the
   helper exits when the caller closes its end or dies. *)
let host_start () =
  flush_all ();
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr rep_w in
    (try
       while true do
         ignore (input_char ic);
         let t0 = now () in
         ignore (Sys.opaque_identity (reference_work ()));
         Printf.fprintf oc "%.9f\n%!" (now () -. t0)
       done
     with End_of_file | Sys_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    { req = Unix.out_channel_of_descr req_w; rep = Unix.in_channel_of_descr rep_r; pid }

(* Seconds the helper took for one run of [reference_work]. *)
let host_sample h =
  output_char h.req 'r';
  flush h.req;
  float_of_string (input_line h.rep)

let host_stop h =
  close_out_noerr h.req;
  close_in_noerr h.rep;
  ignore (Unix.waitpid [] h.pid)

(* The median value of the [(when, value)] samples taken within
   [window] seconds of [t0, t1], or else of the [fallback] nearest. *)
let median_around ~window ~fallback ~t0 ~t1 samples =
  match List.filter (fun (t, _) -> t >= t0 -. window && t <= t1 +. window) samples with
  | _ :: _ as near -> median (List.map snd near)
  | [] ->
    let dist (t, _) = Float.max (t0 -. t) (t -. t1) in
    List.sort (fun a b -> compare (dist a) (dist b)) samples
    |> List.filteri (fun i _ -> i < fallback)
    |> List.map snd |> median

(* ---------------------------------------------------------------- *)
(* spans                                                             *)
(* ---------------------------------------------------------------- *)

type span = {
  id : int;
  name : string;
  op : int;  (* operation the span served: configuration or job; -1 none *)
  parent : int;  (* -1 for a root span *)
  t0 : float;
  t1 : float;
  words : float;  (* words allocated inside the span *)
  count : int;  (* work items the span processed (states, keys, ...) *)
}

type recorder = {
  on : bool;
  mutable spans : span list;  (* newest first *)
  mutable next : int;
  mutable stack : int list;
}

let recorder ~on = { on; spans = []; next = 0; stack = [] }

(* [with_span r name f] runs [f] and, when [r] is on, records a span
   around it whose parent is the innermost open span. [count] turns the
   result into the span's work count. Off, it is a plain call. *)
let with_span r ?(op = -1) ?(count = fun _ -> 0) name f =
  if not r.on then f ()
  else begin
    let id = r.next in
    r.next <- id + 1;
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let a0 = alloc_now () in
    let t0 = now () in
    let close v =
      let t1 = now () in
      let a1 = alloc_now () in
      r.stack <- List.tl r.stack;
      r.spans <-
        { id; name; op; parent; t0; t1;
          words = allocated ~before:a0 ~after:a1; count = count v }
        :: r.spans
    in
    match f () with
    | v ->
      close v;
      v
    | exception e ->
      r.stack <- List.tl r.stack;
      raise e
  end

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that its
   direct children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
           :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

type total = {
  spans_n : int;
  dur_s : float;
  self_s : float;
  alloc_words : float;
  items : int;
}

let zero_total = { spans_n = 0; dur_s = 0.0; self_s = 0.0; alloc_words = 0.0;
                   items = 0 }

(* Per-name totals over a span list. *)
let totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let t = Option.value ~default:zero_total (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name
        {
          spans_n = t.spans_n + 1;
          dur_s = t.dur_s +. (s.t1 -. s.t0);
          self_s = t.self_s +. self;
          alloc_words = t.alloc_words +. s.words;
          items = t.items + s.count;
        })
    (self_times spans);
  tbl

let total tbl name =
  Option.value ~default:zero_total (Hashtbl.find_opt tbl name)
