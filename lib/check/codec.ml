open Anonmem

(* Typed intern-table overflow. Raised instead of packing a code the key
   width cannot hold — a truncated id would silently alias two distinct
   states, which for a model checker is the worst possible failure mode
   (a missed violation). [kind] names the overflowing table. *)
exception Overflow of { kind : string; code : int; width : int }

let () =
  Printexc.register_printer (function
    | Overflow { kind; code; width } ->
      Some
        (Printf.sprintf
           "Codec.Overflow: %s code %d does not fit %d-byte keys (max %d); \
            re-run with wide keys"
           kind code width
           ((1 lsl (8 * width)) - 1))
    | _ -> None)

(* Word keys: slot [i] of a state's code vector occupies bits
   [i * bits, (i + 1) * bits) of one non-negative int. *)
let word_bits ~slots = 62 / slots

let pack_word ~bits vcodes lcodes =
  let m = Array.length vcodes in
  let key = ref 0 and wide = ref 0 in
  for q = Array.length lcodes - 1 downto 0 do
    let c = lcodes.(q) in
    wide := !wide lor c;
    key := (!key lsl bits) lor c
  done;
  for k = m - 1 downto 0 do
    let c = vcodes.(k) in
    wide := !wide lor c;
    key := (!key lsl bits) lor c
  done;
  if !wide lsr bits <> 0 then -1 else !key

let unpack_word ~bits key vcodes lcodes =
  let mask = (1 lsl bits) - 1 in
  let m = Array.length vcodes in
  for k = 0 to m - 1 do
    vcodes.(k) <- (key lsr (bits * k)) land mask
  done;
  for q = 0 to Array.length lcodes - 1 do
    lcodes.(q) <- (key lsr (bits * (m + q))) land mask
  done

module Make (P : Protocol.PROTOCOL) = struct
  module VMap = Map.Make (struct
    type t = P.Value.t

    let compare = P.Value.compare
  end)

  module LMap = Map.Make (struct
    type t = P.local

    let compare = P.compare_local
  end)

  (* Interning table: a persistent map behind an [Atomic], plus the
     reverse table from code to value. Lookups are wait-free; a miss takes
     [lock], writes the reverse entry, and only then publishes the
     extended map, so any domain that holds a code can read its value
     back. [next] rides in the same atomic cell as the map: code
     assignment and map extension are one linearization point. *)
  type ('m, 'a) slot = { map : 'm; next : int; rev : 'a array }

  type t = {
    vcodes : (int VMap.t, P.Value.t) slot Atomic.t;
    locals : (int LMap.t, P.local) slot Atomic.t;
    lock : Mutex.t;
    width : int;  (* bytes per packed slot: 3 (default) or 4 (wide) *)
  }

  (* [rev] with [x] at index [i] = the next code. Entries below [i] are
     never written again, so readers of an older array stay correct. *)
  let extend rev i x =
    if i < Array.length rev then begin
      rev.(i) <- x;
      rev
    end
    else begin
      let r = Array.make (max 16 (2 * i)) x in
      Array.blit rev 0 r 0 i;
      r
    end

  (* Two concrete copies of the intern function: first-class functors
     over two different Map instantiations buy nothing here. *)
  let value_code t v =
    match VMap.find_opt v (Atomic.get t.vcodes).map with
    | Some c -> c
    | None ->
      Mutex.protect t.lock (fun () ->
          let s = Atomic.get t.vcodes in
          match VMap.find_opt v s.map with
          | Some c -> c
          | None ->
            let rev = extend s.rev s.next v in
            Atomic.set t.vcodes
              { map = VMap.add v s.next s.map; next = s.next + 1; rev };
            s.next)

  let local_code t l =
    match LMap.find_opt l (Atomic.get t.locals).map with
    | Some c -> c
    | None ->
      Mutex.protect t.lock (fun () ->
          let s = Atomic.get t.locals in
          match LMap.find_opt l s.map with
          | Some c -> c
          | None ->
            let rev = extend s.rev s.next l in
            Atomic.set t.locals
              { map = LMap.add l s.next s.map; next = s.next + 1; rev };
            s.next)

  let value_of_code t c = (Atomic.get t.vcodes).rev.(c)
  let local_of_code t c = (Atomic.get t.locals).rev.(c)

  (* Three bytes per slot by default: 16.7M distinct codes dwarfs any
     state budget the in-RAM explorer accepts, and fixed width keeps
     every encoding of one state identical regardless of when its codes
     were interned. [~wide] widens to four bytes per slot for runs whose
     intern tables may pass 2^24 entries (disk-bounded explorations);
     the two widths produce incomparable keys, so the width is part of
     the snapshot payload (format v4) and a resumed run always re-packs
     at the width of the interrupted one. *)
  let create ?(wide = false) () =
    {
      vcodes = Atomic.make { map = VMap.empty; next = 0; rev = [||] };
      locals = Atomic.make { map = LMap.empty; next = 0; rev = [||] };
      lock = Mutex.create ();
      width = (if wide then 4 else 3);
    }

  let width t = t.width
  let n_values t = (Atomic.get t.vcodes).next
  let n_locals t = (Atomic.get t.locals).next

  (* Plain-data image of the interning tables, for durable snapshots. The
     persistent maps hold only protocol values/locals and ints, so the
     dump marshals cleanly; [of_dump] rebuilds a live context, reverse
     tables included, whose encodings are byte-identical to the dumped
     one's. *)
  type dump = {
    d_values : int VMap.t;
    d_nvalues : int;
    d_locals : int LMap.t;
    d_nlocals : int;
    d_width : int;
  }

  let dump t =
    let v = Atomic.get t.vcodes and l = Atomic.get t.locals in
    { d_values = v.map; d_nvalues = v.next; d_locals = l.map;
      d_nlocals = l.next; d_width = t.width }

  let of_dump d =
    let rev iter map next =
      let r = ref [||] in
      iter
        (fun x c ->
          if Array.length !r = 0 then r := Array.make next x;
          !r.(c) <- x)
        map;
      !r
    in
    {
      vcodes =
        Atomic.make
          { map = d.d_values; next = d.d_nvalues;
            rev = rev VMap.iter d.d_values d.d_nvalues };
      locals =
        Atomic.make
          { map = d.d_locals; next = d.d_nlocals;
            rev = rev LMap.iter d.d_locals d.d_nlocals };
      lock = Mutex.create ();
      width = d.d_width;
    }

  let put ~kind ~width b i c =
    if c lsr (8 * width) <> 0 || c < 0 then
      raise (Overflow { kind; code = c; width });
    let o = width * i in
    Bytes.unsafe_set b o (Char.unsafe_chr (c land 0xff));
    Bytes.unsafe_set b (o + 1) (Char.unsafe_chr ((c lsr 8) land 0xff));
    Bytes.unsafe_set b (o + 2) (Char.unsafe_chr ((c lsr 16) land 0xff));
    if width = 4 then
      Bytes.unsafe_set b (o + 3) (Char.unsafe_chr ((c lsr 24) land 0xff))

  let encode t mem locals =
    let width = t.width in
    let m = Array.length mem and n = Array.length locals in
    let b = Bytes.create (width * (m + n)) in
    for k = 0 to m - 1 do
      put ~kind:"value" ~width b k (value_code t mem.(k))
    done;
    for q = 0 to n - 1 do
      put ~kind:"local" ~width b (m + q) (local_code t locals.(q))
    done;
    Bytes.unsafe_to_string b

  (* Same layout as [encode], from code vectors someone already interned —
     the incremental canonizer holds codes, not values, and must produce
     keys byte-identical to [encode]'s for the same state. *)
  let key_of_codes t vcodes lcodes =
    let width = t.width in
    let m = Array.length vcodes and n = Array.length lcodes in
    let b = Bytes.create (width * (m + n)) in
    for k = 0 to m - 1 do
      put ~kind:"value" ~width b k vcodes.(k)
    done;
    for q = 0 to n - 1 do
      put ~kind:"local" ~width b (m + q) lcodes.(q)
    done;
    Bytes.unsafe_to_string b

  let codes_of_key t key vcodes lcodes =
    let width = t.width in
    let get i =
      let o = width * i in
      let c =
        Char.code key.[o]
        lor (Char.code key.[o + 1] lsl 8)
        lor (Char.code key.[o + 2] lsl 16)
      in
      if width = 4 then c lor (Char.code key.[o + 3] lsl 24) else c
    in
    let m = Array.length vcodes in
    for k = 0 to m - 1 do
      vcodes.(k) <- get k
    done;
    for q = 0 to Array.length lcodes - 1 do
      lcodes.(q) <- get (m + q)
    done

  let encode_solo t ~proc local mem =
    let width = t.width in
    let m = Array.length mem in
    let b = Bytes.create (width * (m + 2)) in
    put ~kind:"proc" ~width b 0 proc;
    put ~kind:"local" ~width b 1 (local_code t local);
    for k = 0 to m - 1 do
      put ~kind:"value" ~width b (k + 2) (value_code t mem.(k))
    done;
    Bytes.unsafe_to_string b
end
