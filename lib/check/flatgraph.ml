open Anonmem

type proc_status = Rem | Try | Crit | Exit | Done

type trans = { dst : int; proc : int; enters_cs : bool }

type int32s = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n_procs : int;
  status : Bytes.t;
  offsets : int32s;
  dsts : int32s;
  labels : Bytes.t;
  complete : bool;
}

let max_edges = Int32.to_int Int32.max_int
let max_procs = 127

let int32s n =
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n in
  Bigarray.Array1.fill a 0l;
  a

let create ~n_procs ~n_states ~n_edges ~complete =
  let too_many what n limit =
    invalid_arg
      (Printf.sprintf "Flatgraph.create: %d %s; at most %d fit" n what limit)
  in
  if n_procs < 0 || n_procs > max_procs then too_many "processes" n_procs max_procs;
  if n_states > max_edges then too_many "states" n_states max_edges;
  if n_edges > max_edges then too_many "transitions" n_edges max_edges;
  {
    n_procs;
    status = Bytes.make (n_states * n_procs) '\000';
    offsets = int32s (n_states + 1);
    dsts = int32s n_edges;
    labels = Bytes.make n_edges '\000';
    complete;
  }

let n_states g = Bigarray.Array1.dim g.offsets - 1
let n_edges g = Bigarray.Array1.dim g.dsts

let code = function Rem -> 0 | Try -> 1 | Crit -> 2 | Exit -> 3 | Done -> 4
let of_code = [| Rem; Try; Crit; Exit; Done |]
let label ~proc ~enters_cs = (proc lsl 1) lor Bool.to_int enters_cs

let of_lists ?(complete = true) ~n_procs statuses succs =
  let n_states = Array.length statuses in
  let n_edges = Array.fold_left (fun acc ts -> acc + List.length ts) 0 succs in
  let g = create ~n_procs ~n_states ~n_edges ~complete in
  let e = ref 0 in
  Array.iteri
    (fun v sts ->
      Array.iteri
        (fun p s -> Bytes.set g.status ((v * n_procs) + p) (Char.chr (code s)))
        sts;
      List.iter
        (fun { dst; proc; enters_cs } ->
          g.dsts.{!e} <- Int32.of_int dst;
          Bytes.set g.labels !e (Char.chr (label ~proc ~enters_cs));
          incr e)
        succs.(v);
      g.offsets.{v + 1} <- Int32.of_int !e)
    statuses;
  g

let status g v p = of_code.(Char.code (Bytes.get g.status ((v * g.n_procs) + p)))
let statuses g v = Array.init g.n_procs (status g v)

let succs g v =
  List.init
    (Int32.to_int g.offsets.{v + 1} - Int32.to_int g.offsets.{v})
    (fun i ->
      let e = Int32.to_int g.offsets.{v} + i in
      let l = Char.code (Bytes.get g.labels e) in
      { dst = Int32.to_int g.dsts.{e}; proc = l lsr 1; enters_cs = l land 1 = 1 })

type edge_filter = { mask : int; skip : int }

let all_edges = { mask = 0; skip = 1 }
let no_entry = { mask = 1; skip = 1 }
let no_entry_by p = { mask = 0xff; skip = label ~proc:p ~enters_cs:true }

let of_status : 'o Protocol.status -> proc_status = function
  | Protocol.Remainder -> Rem
  | Trying -> Try
  | Critical -> Crit
  | Exiting -> Exit
  | Decided _ -> Done

let pp_status ppf s =
  Format.pp_print_string ppf
    (match s with
    | Rem -> "remainder"
    | Try -> "trying"
    | Crit -> "critical"
    | Exit -> "exiting"
    | Done -> "decided")
