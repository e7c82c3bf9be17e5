type entry = {
  ident : string;
  verdict : string;
  exit_code : int;
  detail : string;
  n_states : int;
  stats : Check.Checker_stats.t option;
}

type t = {
  tbl : (string, entry list) Hashtbl.t;  (* digest -> bucket *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable collisions : int;
}

let create () =
  {
    tbl = Hashtbl.create 64;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    collisions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~key ~ident =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None ->
        t.misses <- t.misses + 1;
        None
      | Some bucket -> (
        match List.find_opt (fun e -> e.ident = ident) bucket with
        | Some e ->
          t.hits <- t.hits + 1;
          Some e
        | None ->
          (* same 16-byte digest, different configuration: a detected
             collision — degrade to a miss *)
          t.collisions <- t.collisions + 1;
          t.misses <- t.misses + 1;
          None))

let add t ~key entry =
  locked t (fun () ->
      let bucket =
        match Hashtbl.find_opt t.tbl key with None -> [] | Some b -> b
      in
      let bucket = List.filter (fun e -> e.ident <> entry.ident) bucket in
      Hashtbl.replace t.tbl key (entry :: bucket))

let length t =
  locked t (fun () ->
      Hashtbl.fold (fun _ b acc -> acc + List.length b) t.tbl 0)

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let collisions t = locked t (fun () -> t.collisions)

(* The cache file is a COORDSNAP envelope (CRC, version, durable write)
   whose fingerprint names the payload layout. Entries embed
   [Checker_stats.t], so bump [format] whenever [entry] or
   [Checker_stats.t] changes: a file of another layout is then refused
   instead of decoding into shifted fields. Bump it too when what an
   entry means changes: v3 check details carry the namings, and v3 fuzz
   verdicts come from campaigns with the baseline twins. *)
let format = "coordctl verdict cache v3"
let fingerprint = Digest.string format

let save t ~path =
  locked t (fun () ->
      let entries = Hashtbl.fold (fun k b acc -> (k, b) :: acc) t.tbl [] in
      Check.Snapshot.write ~path ~fingerprint ~descr:format
        (Marshal.to_string (entries : (string * entry list) list) []))

let load ~path =
  let t = create () in
  (if Sys.file_exists path then
     match
       let meta, payload = Check.Snapshot.read ~path in
       Check.Snapshot.check_fingerprint ~path meta ~fingerprint ~descr:format;
       payload
     with
     | payload ->
       let entries : (string * entry list) list =
         Marshal.from_string payload 0
       in
       List.iter (fun (k, b) -> Hashtbl.replace t.tbl k b) entries
     | exception Check.Snapshot.Error e ->
       let reason =
         match e with
         | Check.Snapshot.Config_mismatch { snapshot; _ } ->
           Printf.sprintf "written as %S, this build reads %S" snapshot format
         | e -> Check.Snapshot.error_message e
       in
       Format.eprintf "verdict cache %s discarded: %s@." path reason);
  t
