(* Temporary directories for tests. [with_dir name f] runs [f] on a fresh
   directory under the temp dir and removes it, with everything in it,
   when [f] returns or raises — a failing test leaves nothing behind. *)

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir name f =
  let dir = Filename.temp_dir ("coord" ^ name ^ "-") ".d" in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f dir)
