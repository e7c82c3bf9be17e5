type t = { count : int; component : int array; first : int array; order : int array }

(* Iterative Tarjan over the CSR arrays. A DFS frame is a state on
   [frames]; [cursor.(v)] is the next edge of [v] to look at. A state is on
   Tarjan's stack exactly while it is visited ([index] >= 0) and has no
   component yet, so no separate marker is kept. A component's states are
   appended to [order] as they are popped, so [order] lists the
   components in turn. *)
let compute ?alive ?(edges = Flatgraph.all_edges) (g : Flatgraph.t) =
  let n = Flatgraph.n_states g in
  let alive = match alive with Some a -> a | None -> Bytes.make n '\001' in
  let { Flatgraph.mask; skip } = edges in
  let offsets = g.offsets and dsts = g.dsts and labels = g.labels in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let component = Array.make n (-1) in
  let cursor = Array.make n 0 in
  let stack = Array.make n 0 and sp = ref 0 in
  let frames = Array.make n 0 and fp = ref 0 in
  let next_index = ref 0 and count = ref 0 in
  let order = Array.make n 0 and popped = ref 0 in
  let first = Array.make (n + 1) 0 in
  let open_vertex v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    cursor.(v) <- Int32.to_int offsets.{v};
    frames.(!fp) <- v;
    incr fp
  in
  let close_vertex v =
    if lowlink.(v) = index.(v) then begin
      let c = !count in
      incr count;
      let w = ref (-1) in
      while !w <> v do
        decr sp;
        w := stack.(!sp);
        component.(!w) <- c;
        order.(!popped) <- !w;
        incr popped
      done;
      first.(c + 1) <- !popped
    end
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 && Bytes.get alive root <> '\000' then begin
      open_vertex root;
      while !fp > 0 do
        let v = frames.(!fp - 1) in
        let e = cursor.(v) in
        if e = Int32.to_int offsets.{v + 1} then begin
          decr fp;
          close_vertex v;
          (* propagate lowlink to the parent frame *)
          if !fp > 0 then begin
            let p = frames.(!fp - 1) in
            if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v)
          end
        end
        else begin
          cursor.(v) <- e + 1;
          let w = Int32.to_int dsts.{e} in
          if
            Char.code (Bytes.get labels e) land mask <> skip
            && Bytes.get alive w <> '\000'
          then
            if index.(w) = -1 then open_vertex w
            else if component.(w) = -1 && index.(w) < lowlink.(v) then
              lowlink.(v) <- index.(w)
        end
      done
    end
  done;
  (* Tarjan numbers components in reverse topological order already. *)
  { count = !count; component; first; order }

let components t =
  let buckets = Array.make t.count [] in
  Array.iteri (fun v c -> if c >= 0 then buckets.(c) <- v :: buckets.(c)) t.component;
  buckets
