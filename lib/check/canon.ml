open Anonmem

module Make (P : Protocol.PROTOCOL) = struct
  type sym = {
    sigma : int array;  (** process permutation: [q] plays the role of [sigma.(q)] *)
    sigma_inv : int array;  (** inverse of [sigma] *)
    pi : int array;  (** induced physical-register permutation *)
    pi_inv : int array;  (** inverse of [pi] *)
    rho : (int * int) array;  (** identifier relabeling, as (old, new) pairs *)
    rho_map : int -> int;
        (** [rho] as a precomputed O(1) map (direct-indexed table for the
            small ids every real configuration uses) *)
  }

  let invert_perm p =
    let inv = Array.make (Array.length p) 0 in
    Array.iteri (fun i j -> inv.(j) <- i) p;
    inv

  (* Identifier relabeling as a constant-time function. Ids are small in
     every real configuration, so a direct-indexed table covers them; the
     pair-scan fallback (with early exit) only exists for pathological
     ids. *)
  let rho_fun rho =
    if Array.length rho = 0 then Fun.id
    else begin
      let max_id =
        Array.fold_left (fun acc (a, b) -> max acc (max a b)) 0 rho
      in
      if max_id <= 65_535 then begin
        let tbl = Array.init (max_id + 1) Fun.id in
        Array.iter (fun (a, b) -> tbl.(a) <- b) rho;
        fun i -> if i >= 0 && i <= max_id then Array.unsafe_get tbl i else i
      end
      else
        let len = Array.length rho in
        fun i ->
          let rec go k =
            if k >= len then i
            else
              let a, b = rho.(k) in
              if a = i then b else go (k + 1)
          in
          go 0
    end

  let identity ~n ~m =
    {
      sigma = Array.init n Fun.id;
      sigma_inv = Array.init n Fun.id;
      pi = Array.init m Fun.id;
      pi_inv = Array.init m Fun.id;
      rho = [||];
      rho_map = Fun.id;
    }

  let is_identity s =
    let n = Array.length s.sigma in
    let rec go q = q >= n || (s.sigma.(q) = q && go (q + 1)) in
    go 0

  (* A triple (sigma, pi, rho) is an automorphism of the configuration iff
     - sigma fixes the input vector ([Stdlib.compare] equality, matching
       the explorer's structural state equality);
     - pi, defined as nu_{sigma(0)} o nu_0^{-1}, satisfies
       pi o nu_q = nu_{sigma(q)} for every q, i.e. relabeled processes
       address physical registers exactly as their images do;
     - rho sends ids.(q) to ids.(sigma q) and fixes everything else, in
       particular the reserved empty value 0 (we reject any sigma that
       would relabel an id 0 across the zero/non-zero boundary).
     Under those conditions relabeling commutes with [P.step] for
     symmetric protocols, so the orbit of a reachable state is reachable
     and property verdicts transfer (DESIGN.md §9).

     Rejection is the hot path when the group is enumerated, so every
     scan below stops at the first mismatch. *)
  let admissible ~ids ~inputs ~namings sigma =
    let n = Array.length sigma in
    let rec inputs_ok q =
      q >= n
      || (Stdlib.compare inputs.(sigma.(q)) inputs.(q) = 0
         && (ids.(q) = 0) = (ids.(sigma.(q)) = 0)
         && inputs_ok (q + 1))
    in
    if not (inputs_ok 0) then None
    else begin
      let pi = Naming.compose namings.(sigma.(0)) (Naming.invert namings.(0)) in
      let rec namings_ok q =
        q >= n
        || (Naming.equal (Naming.compose pi namings.(q)) namings.(sigma.(q))
           && namings_ok (q + 1))
      in
      if not (namings_ok 0) then None
      else begin
        let rho = ref [] in
        for q = n - 1 downto 0 do
          if ids.(q) <> ids.(sigma.(q)) then
            rho := (ids.(q), ids.(sigma.(q))) :: !rho
        done;
        let rho = Array.of_list !rho in
        let pi = Naming.to_array pi in
        Some
          {
            sigma;
            sigma_inv = invert_perm sigma;
            pi;
            pi_inv = invert_perm pi;
            rho;
            rho_map = rho_fun rho;
          }
      end
    end

  let max_procs = 7

  (* The reduction silently explores the full graph in exactly these two
     cases; callers surface the flag instead of hiding the degradation
     (Checker_stats.degraded, `coordctl … --canon` notice). *)
  let degraded ~n = (not P.symmetric) || n > max_procs

  let group ~ids ~inputs ~namings =
    let n = Array.length ids in
    let m = Naming.size namings.(0) in
    if degraded ~n then [ identity ~n ~m ]
    else
      Naming.all n
      |> List.filter_map (fun perm ->
             admissible ~ids ~inputs ~namings (Naming.to_array perm))

  let apply sym mem locals =
    let f = sym.rho_map in
    let mem' = Array.copy mem in
    Array.iteri (fun k v -> mem'.(sym.pi.(k)) <- P.map_value_ids f v) mem;
    let locals' = Array.copy locals in
    Array.iteri (fun q l -> locals'.(sym.sigma.(q)) <- P.map_local_ids f l) locals;
    (mem', locals')

  (* Structural order on (mem, locals) pairs. The representative must be
     chosen structurally, not by encoded key: interning codes depend on
     discovery order, which differs across runs and domain counts. *)
  let compare_image (m1, l1) (m2, l2) =
    let c = ref 0 in
    let k = ref 0 in
    let lm = Array.length m1 in
    while !c = 0 && !k < lm do
      c := P.Value.compare m1.(!k) m2.(!k);
      incr k
    done;
    let q = ref 0 in
    let ln = Array.length l1 in
    while !c = 0 && !q < ln do
      c := P.compare_local l1.(!q) l2.(!q);
      incr q
    done;
    !c

  (* Reference canonizer: materialize every orbit image and sort. Kept as
     the oracle the incremental path below is cross-checked against (and
     as the spec of what "canonical" means); the explorers use the
     incremental path exclusively. *)
  let canonize syms mem locals =
    match syms with
    | [] | [ _ ] -> (mem, locals, 1)
    | syms ->
      let images =
        List.map
          (fun s -> if is_identity s then (mem, locals) else apply s mem locals)
          syms
      in
      let sorted = List.sort_uniq compare_image images in
      let best = List.hd sorted in
      (fst best, snd best, List.length sorted)

  (* ------------------------------------------------------------------ *)
  (* incremental canonicalization                                        *)
  (* ------------------------------------------------------------------ *)

  (* The incremental path runs the lex-min search as integer work in the
     interned code space of the exploration's codec. The image of every
     code under every automorphism is memoized ([vimg]/[limg]), so
     [map_value_ids]/[map_local_ids] runs once per (sym, value) pair for
     the whole exploration. The search walks the group comparing each
     image with the current best slot by slot in codes (codes witness
     structural equality exactly: the codec interns by [Value.compare] /
     [compare_local]). Only at the first differing slot does direction
     matter, and code order is discovery-order noise, so the structural
     order of that pair of codes comes from a memo ([vord]/[lord]) that
     one structural comparison per pair fills. Most triples die at their
     first differing slot without an image being built — those
     rejections are the [pruned] counter.

     A ctx is single-threaded by construction (one per worker domain);
     only the codec behind the code closures is shared, and that is safe
     across domains. *)
  (* log2 of the slots of the order memo *)
  let order_bits = 10

  type 'k ctx = {
    syms : sym array;
    id_index : int;  (* position of the identity in [syms] *)
    order : int;
    orbits : int array;
        (* orbits.(k): the orbit size for a stabilizer of order [k], or 0
           when [k] does not divide the group order *)
    value_code : P.Value.t -> int;
    local_code : P.local -> int;
    value_of : int -> P.Value.t;
    local_of : int -> P.local;
    pack : int array -> int array -> 'k;
    vimg : int array array;
        (* vimg.(s).(c): code of the rho_s-image of the value at code
           [c], or -1 while unknown *)
    limg : int array array;
    vord : int array;  (* the memo of the order between two value codes *)
    lord : int array;
    (* scratch, sized (m, n) once per exploration *)
    vc : int array;  (* code vector [state_key] loaded *)
    lc : int array;
    best_vc : int array;
    best_lc : int array;
    mutable moved : bool;
        (* the best buffers hold a non-identity image (false: the state
           itself is still the best) *)
    mutable hint : int;
        (* sym that minimized the previous state; tried first, because
           BFS expands siblings back to back and siblings overwhelmingly
           share their minimizer — starting low makes every later
           rejection a first-slot code mismatch *)
    mutable pruned : int;
  }

  let create ~syms ~value_code ~local_code ~value_of ~local_of ~pack
      ~init:(mem0, locals0) =
    let syms = Array.of_list syms in
    let id_index =
      let rec go i =
        if i >= Array.length syms then 0
        else if is_identity syms.(i) then i
        else go (i + 1)
      in
      go 0
    in
    let m = Array.length mem0 and n = Array.length locals0 in
    {
      syms;
      id_index;
      order = Array.length syms;
      orbits =
        Array.init
          (Array.length syms + 1)
          (fun k ->
            if k > 0 && Array.length syms mod k = 0 then Array.length syms / k
            else 0);
      value_code;
      local_code;
      value_of;
      local_of;
      pack;
      vimg = Array.map (fun _ -> [||]) syms;
      limg = Array.map (fun _ -> [||]) syms;
      vord = Array.make (1 lsl order_bits) (-1);
      lord = Array.make (1 lsl order_bits) (-1);
      vc = Array.make m 0;
      lc = Array.make n 0;
      best_vc = Array.make m 0;
      best_lc = Array.make n 0;
      moved = false;
      hint = id_index;
      pruned = 0;
    }

  (* An intern closure that also remembers what it interned, and the
     reverse lookup over what it remembers. A ctx built without the
     codec's reverse tables learns every code it is handed this way: the
     codes of [state_key]'s states and of their images. *)
  let remembering code dummy =
    let rev = ref [||] in
    ( (fun x ->
        let c = code x in
        let len = Array.length !rev in
        if c >= len then begin
          let r = Array.make (max 16 (max (2 * len) (c + 1))) dummy in
          Array.blit !rev 0 r 0 len;
          rev := r
        end;
        !rev.(c) <- x;
        c),
      fun c -> !rev.(c) )

  let make_ctx ~syms ~value_code ~local_code ~pack ~init =
    let value_code, value_of = remembering value_code P.Value.init in
    let local_code, local_of = remembering local_code (snd init).(0) in
    create ~syms ~value_code ~local_code ~value_of ~local_of ~pack ~init

  let make_codes_ctx ~syms ~value_code ~local_code ~value_of_code
      ~local_of_code ~init =
    create ~syms ~value_code ~local_code ~value_of:value_of_code
      ~local_of:local_of_code ~pack:(fun _ _ -> ()) ~init

  let pruned ctx = ctx.pruned

  (* [row] with room for index [c], unknown entries -1 *)
  let grow row c =
    let len = Array.length row in
    let row' = Array.make (max 64 (max (2 * len) (c + 1))) (-1) in
    Array.blit row 0 row' 0 len;
    row'

  (* code of the rho_s-image of the value at code [c]; memoized *)
  let img_v ctx s c =
    let row = ctx.vimg.(s) in
    if c < Array.length row && Array.unsafe_get row c >= 0 then
      Array.unsafe_get row c
    else begin
      let row = if c < Array.length row then row else grow row c in
      ctx.vimg.(s) <- row;
      let c' =
        ctx.value_code
          (P.map_value_ids ctx.syms.(s).rho_map (ctx.value_of c))
      in
      row.(c) <- c';
      c'
    end

  let img_l ctx s c =
    let row = ctx.limg.(s) in
    if c < Array.length row && Array.unsafe_get row c >= 0 then
      Array.unsafe_get row c
    else begin
      let row = if c < Array.length row then row else grow row c in
      ctx.limg.(s) <- row;
      let c' =
        ctx.local_code
          (P.map_local_ids ctx.syms.(s).rho_map (ctx.local_of c))
      in
      row.(c) <- c';
      c'
    end

  (* Structural order of two distinct codes, from a direct-mapped memo:
     slot [h] holds [(key lsl 2) lor (1 + sign)] for the last pair
     [key = (a lsl 30) lor b] that hashed to it, and a pair that finds
     another there is compared again. Codes past 2^30 (only wide codecs
     reach them) skip the memo. *)
  let order_slot key = (key * 0x2545F4914F6CDD1D) lsr (Sys.int_size - order_bits)

  let cmp_v ctx a b =
    if (a lor b) lsr 30 <> 0 then
      P.Value.compare (ctx.value_of a) (ctx.value_of b)
    else begin
      let key = (a lsl 30) lor b in
      let h = order_slot key in
      let e = ctx.vord.(h) in
      if e lsr 2 = key then (e land 3) - 1
      else begin
        let c = Int.compare (P.Value.compare (ctx.value_of a) (ctx.value_of b)) 0 in
        ctx.vord.(h) <- (key lsl 2) lor (c + 1);
        c
      end
    end

  let cmp_l ctx a b =
    if (a lor b) lsr 30 <> 0 then
      P.compare_local (ctx.local_of a) (ctx.local_of b)
    else begin
      let key = (a lsl 30) lor b in
      let h = order_slot key in
      let e = ctx.lord.(h) in
      if e lsr 2 = key then (e land 3) - 1
      else begin
        let c = Int.compare (P.compare_local (ctx.local_of a) (ctx.local_of b)) 0 in
        ctx.lord.(h) <- (key lsl 2) lor (c + 1);
        c
      end
    end

  (* first register slot where sym [s]'s image of [vc] differs from the
     best [bv], or [m] *)
  let rec diff_reg ctx s pi_inv vc bv j =
    if j >= Array.length vc || img_v ctx s vc.(pi_inv.(j)) <> bv.(j) then j
    else diff_reg ctx s pi_inv vc bv (j + 1)

  let rec diff_proc ctx s sigma_inv lc bl q =
    if q >= Array.length lc || img_l ctx s lc.(sigma_inv.(q)) <> bl.(q) then q
    else diff_proc ctx s sigma_inv lc bl (q + 1)

  (* Compare sym [s]'s image of the state with the best so far (the state
     itself until [moved]), and take it when smaller. [count] is the
     number of syms seen so far whose image equals the best; returns it
     updated. A strictly smaller image resets it to 1, so at the end it is
     exactly the stabilizer order of the minimum (any sym mapping the
     state to the final best either set it or tied it), and orbit =
     |G| / |stabilizer|. *)
  let consider ctx vc lc s count =
    let sym = ctx.syms.(s) in
    let m = Array.length vc and n = Array.length lc in
    let bv = if ctx.moved then ctx.best_vc else vc in
    let bl = if ctx.moved then ctx.best_lc else lc in
    let j = diff_reg ctx s sym.pi_inv vc bv 0 in
    let q = if j < m then 0 else diff_proc ctx s sym.sigma_inv lc bl 0 in
    if j = m && q = n then count + 1
    else begin
      (* code order is noise: the structural order of the first
         differing pair decides *)
      let c =
        if j < m then cmp_v ctx (img_v ctx s vc.(sym.pi_inv.(j))) bv.(j)
        else cmp_l ctx (img_l ctx s lc.(sym.sigma_inv.(q))) bl.(q)
      in
      if c > 0 then begin
        ctx.pruned <- ctx.pruned + 1;
        count
      end
      else begin
        for k = 0 to m - 1 do
          ctx.best_vc.(k) <- img_v ctx s vc.(sym.pi_inv.(k))
        done;
        for q = 0 to n - 1 do
          ctx.best_lc.(q) <- img_l ctx s lc.(sym.sigma_inv.(q))
        done;
        ctx.moved <- true;
        ctx.hint <- s;
        1
      end
    end

  (* The lex-min search over the code vector [vc], [lc]: when the least
     orbit element is another one, leaves its codes in the best buffers
     and sets [moved]. Returns the orbit size. *)
  let search ctx vc lc =
    ctx.moved <- false;
    let hint = ctx.hint in
    let count = ref (if hint = ctx.id_index then 1 else consider ctx vc lc hint 1) in
    for s = 0 to ctx.order - 1 do
      if s <> hint && s <> ctx.id_index then count := consider ctx vc lc s !count
    done;
    (* orbit-stabilizer: |G| = orbit * stabilizer *)
    let orbit = ctx.orbits.(!count) in
    assert (orbit > 0);
    orbit

  let canon_codes ctx vc lc =
    let orbit = search ctx vc lc in
    if ctx.moved then begin
      for k = 0 to Array.length vc - 1 do
        vc.(k) <- ctx.best_vc.(k)
      done;
      for q = 0 to Array.length lc - 1 do
        lc.(q) <- ctx.best_lc.(q)
      done
    end;
    orbit

  (* Intern the state's codes into the ctx scratch and return its packed
     key (the key of the state AS IS, before canonicalization). Must be
     followed by [canonize_keyed] on the same state before the ctx is
     reused. *)
  let state_key ctx mem locals =
    for k = 0 to Array.length mem - 1 do
      ctx.vc.(k) <- ctx.value_code mem.(k)
    done;
    for q = 0 to Array.length locals - 1 do
      ctx.lc.(q) <- ctx.local_code locals.(q)
    done;
    ctx.pack ctx.vc ctx.lc

  (* The structural wrapper over [search]: the representative's values,
     key and orbit. The returned arrays are the inputs themselves when
     the state is already canonical, fresh arrays otherwise. *)
  let canonize_keyed ctx ~raw mem locals =
    let orbit = search ctx ctx.vc ctx.lc in
    if ctx.moved then
      ( Array.map ctx.value_of ctx.best_vc,
        Array.map ctx.local_of ctx.best_lc,
        ctx.pack ctx.best_vc ctx.best_lc,
        orbit )
    else (mem, locals, raw, orbit)
end
