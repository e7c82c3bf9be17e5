let status_letter = function
  | Flatgraph.Rem -> 'R'
  | Try -> 'T'
  | Crit -> 'C'
  | Exit -> 'E'
  | Done -> 'D'

let of_flat ?(max_nodes = 500) ?(highlight = []) (g : Flatgraph.t) ppf () =
  let n = min (Flatgraph.n_states g) max_nodes in
  let highlighted = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace highlighted v ()) highlight;
  Format.fprintf ppf "digraph states {@.";
  Format.fprintf ppf "  rankdir=LR; node [shape=box, fontname=monospace];@.";
  for v = 0 to n - 1 do
    let sts = Flatgraph.statuses g v in
    let label =
      String.init (Array.length sts) (fun p -> status_letter sts.(p))
    in
    let crit =
      Array.fold_left
        (fun acc s -> if s = Flatgraph.Crit then acc + 1 else acc)
        0 sts
    in
    let color =
      if crit >= 2 then " style=filled fillcolor=red"
      else if Hashtbl.mem highlighted v then " style=filled fillcolor=orange"
      else if crit = 1 then " style=filled fillcolor=lightblue"
      else ""
    in
    Format.fprintf ppf "  s%d [label=\"%d:%s\"%s];@." v v label color
  done;
  for v = 0 to n - 1 do
    for e = Int32.to_int g.offsets.{v} to Int32.to_int g.offsets.{v + 1} - 1 do
      let dst = Int32.to_int g.dsts.{e} and l = Char.code (Bytes.get g.labels e) in
      if dst < n then
        Format.fprintf ppf "  s%d -> s%d [label=\"p%d\"%s];@." v dst (l lsr 1)
          (if l land 1 = 1 then " penwidth=2 color=blue" else "")
    done
  done;
  if Flatgraph.n_states g > n then
    Format.fprintf ppf
      "  elided [shape=plaintext, label=\"(%d more states elided)\"];@."
      (Flatgraph.n_states g - n);
  Format.fprintf ppf "}@."
