(* Linear probing over one interleaved array: the key of slot [i] sits
   at [2i] and its value at [2i + 1], so a probe touches one cache line.
   The table stays at most half full, so an absent key meets an empty
   slot within a few probes. *)

type t = { mutable slots : int array; mutable size : int; mutable shift : int }

let empty = -1

let create n =
  let rec bits b = if 1 lsl b >= 2 * n then b else bits (b + 1) in
  let b = bits 4 in
  { slots = Array.make (2 lsl b) empty; size = 0; shift = Sys.int_size - b }

(* Fibonacci hashing: the top bits of the product mix every key bit, so
   keys that differ only in their high slots still spread. *)
let home t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

(* The probe loops are top-level functions: a local one would capture
   the slots, key and mask, and allocate a closure per call. *)
let rec probe s mask k i =
  let k' = Array.unsafe_get s (2 * i) in
  if k' = k then Array.unsafe_get s ((2 * i) + 1)
  else if k' = empty then -1
  else probe s mask k ((i + 1) land mask)

let rec put s mask k v i =
  if Array.unsafe_get s (2 * i) = empty then begin
    Array.unsafe_set s (2 * i) k;
    Array.unsafe_set s ((2 * i) + 1) v
  end
  else put s mask k v ((i + 1) land mask)

(* Every probe is masked by the length of the one array [find] loaded, so
   a reader that races a resize (and reads [shift] of another array)
   stays inside that array; its answer is then meaningless, but safe. *)
let find t k =
  let s = t.slots in
  let mask = (Array.length s lsr 1) - 1 in
  probe s mask k (home t k land mask)

let insert t k v =
  let s = t.slots in
  let mask = (Array.length s lsr 1) - 1 in
  put s mask k v (home t k land mask)

(* Double the table until [extra] more keys keep it at most half full. *)
let reserve t extra =
  while 4 * (t.size + extra) > Array.length t.slots do
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) empty;
    t.shift <- t.shift - 1;
    for i = 0 to (Array.length old / 2) - 1 do
      let k = old.(2 * i) in
      if k <> empty then insert t k old.((2 * i) + 1)
    done
  done

let add t k v =
  reserve t 1;
  insert t k v;
  t.size <- t.size + 1

let clear t =
  if t.size > 0 then begin
    Array.fill t.slots 0 (Array.length t.slots) empty;
    t.size <- 0
  end
