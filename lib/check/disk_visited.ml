type run = { r_file : string; r_count : int }

type t = {
  dir : string;
  key_len : int;
  quota_bytes : int option;
  mutable bytes : int;  (* payload bytes across all runs *)
  mutable runs : run list;  (* oldest first *)
  mutable next_run : int;
  mutable probes : int;
}

type manifest = {
  m_key_len : int;
  m_runs : (string * int) list;
  m_next_run : int;
}

let run_file n = Printf.sprintf "run-%04d.run" n

let is_run_file f =
  String.length f > 8
  && String.sub f 0 4 = "run-"
  && Filename.check_suffix f ".run"

(* A spill that died between opening its tmp file and the rename leaves
   "run-NNNN.run.tmp" behind. No manifest ever references a tmp file, so
   they are garbage by construction — but garbage that accumulates under
   a fault campaign, so open and restore sweep them with the strays. *)
let is_run_tmp f =
  String.length f > 4
  && String.sub f 0 4 = "run-"
  && Filename.check_suffix f ".tmp"

let remove_stray_runs ~dir ~keep =
  Array.iter
    (fun f ->
      if (is_run_file f && not (List.mem f keep)) || is_run_tmp f then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let create ?quota_bytes ~dir ~key_len () =
  (try
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
     else if not (Sys.is_directory dir) then
       raise (Snapshot.Error (Snapshot.Io (dir ^ " is not a directory")))
   with Unix.Unix_error (e, _, _) ->
     raise
       (Snapshot.Error
          (Snapshot.Io
             (Printf.sprintf "cannot create %s: %s" dir
                (Unix.error_message e)))));
  remove_stray_runs ~dir ~keep:[];
  { dir; key_len; quota_bytes; bytes = 0; runs = []; next_run = 0; probes = 0 }

let would_exceed_quota t ~adding =
  match t.quota_bytes with
  | None -> false
  | Some q -> t.bytes + adding > q

let spill t ~fingerprint ~descr keys =
  let file = run_file t.next_run in
  let payload_bytes = Array.length keys * t.key_len in
  (* defensive: the explorer checks [would_exceed_quota] BEFORE sorting
     and spilling, and degrades gracefully; reaching this raise means a
     caller ignored the quota, and refusing is better than exceeding it *)
  if would_exceed_quota t ~adding:payload_bytes then
    raise
      (Snapshot.Error
         (Snapshot.Io
            (Printf.sprintf
               "disk-visited byte quota exceeded: %d + %d > %d" t.bytes
               payload_bytes
               (Option.get t.quota_bytes))));
  let buf = Buffer.create payload_bytes in
  Array.iter (Buffer.add_string buf) keys;
  let path = Filename.concat t.dir file in
  Snapshot.write ~path ~fingerprint ~descr (Buffer.contents buf);
  (* Verify after write. Probes trust run payloads without re-hashing
     (see [run_payload]), so a write damaged in flight — torn, truncated
     or bit-flipped on its way to the platter — would silently falsify
     membership answers for the rest of the exploration: the one failure
     mode an exhaustive checker can never accept. One read-back at spill
     time pins the CRC (computed over the clean payload, before the
     write could damage it) and surfaces damage as [Corrupt] while the
     spill is still retryable. *)
  (match Snapshot.read ~path with
  | _, payload when String.length payload = payload_bytes -> ()
  | _ ->
    raise
      (Snapshot.Error
         (Snapshot.Corrupt { path; detail = "run damaged during write" })));
  t.next_run <- t.next_run + 1;
  t.bytes <- t.bytes + payload_bytes;
  t.runs <- t.runs @ [ { r_file = file; r_count = Array.length keys } ]

(* Raw payload of a run, skipping the CRC: runs are immutable and were
   CRC-validated by the read-back in [spill] or by [restore], so a
   per-generation re-hash would only burn throughput. The framing is
   still parsed defensively — a truncated file surfaces as [Corrupt], not
   as garbage keys. *)
let run_payload ~path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> raise (Snapshot.Error (Snapshot.Io msg))
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        (* magic + version + fingerprint *)
        seek_in ic (9 + 1 + 16);
        let b2 = Bytes.create 2 in
        really_input ic b2 0 2;
        (* description, chunk marker *)
        seek_in ic (pos_in ic + Bytes.get_uint16_be b2 0 + 1);
        let b8 = Bytes.create 8 in
        really_input ic b8 0 8;
        let len = Int64.to_int (Bytes.get_int64_be b8 0) in
        seek_in ic (pos_in ic + 4) (* CRC *);
        if len < 0 || len > in_channel_length ic - pos_in ic then
          raise
            (Snapshot.Error
               (Snapshot.Corrupt { path; detail = "truncated run payload" }));
        let p = Bytes.create len in
        really_input ic p 0 len;
        Bytes.unsafe_to_string p
      with End_of_file ->
        raise
          (Snapshot.Error
             (Snapshot.Corrupt { path; detail = "truncated run file" })))

(* [key] vs the fixed-width record at [off] in payload [p], from byte [i]
   on. Keys only need a consistent total order on both sides, so raw byte
   order suffices. A top-level loop: a local one would capture the key,
   payload and offsets, and allocate a closure per comparison. *)
let rec compare_at key p off len i =
  if i = len then 0
  else
    let c = Char.compare key.[i] p.[off + i] in
    if c <> 0 then c else compare_at key p off len (i + 1)

let probe t keys =
  let nk = Array.length keys in
  let found = Array.make nk false in
  if nk > 0 && t.runs <> [] then begin
    List.iter
      (fun r ->
        let p = run_payload ~path:(Filename.concat t.dir r.r_file) in
        let kl = t.key_len in
        let i = ref 0 and j = ref 0 in
        while !i < nk && !j < r.r_count do
          if found.(!i) then incr i
          else begin
            let c = compare_at keys.(!i) p (!j * kl) kl 0 in
            if c = 0 then begin
              found.(!i) <- true;
              incr i;
              incr j
            end
            else if c < 0 then incr i
            else incr j
          end
        done)
      t.runs;
    t.probes <- t.probes + 1
  end;
  found

let manifest t =
  {
    m_key_len = t.key_len;
    m_runs = List.map (fun r -> (r.r_file, r.r_count)) t.runs;
    m_next_run = t.next_run;
  }

let restore ?quota_bytes ~dir ~fingerprint ~descr m =
  List.iter
    (fun (file, count) ->
      let path = Filename.concat dir file in
      let meta, payload = Snapshot.read ~path in
      Snapshot.check_fingerprint ~path meta ~fingerprint ~descr;
      if String.length payload <> count * m.m_key_len then
        raise
          (Snapshot.Error
             (Snapshot.Corrupt
                {
                  path;
                  detail =
                    Printf.sprintf
                      "run holds %d bytes; the manifest promised %d keys of \
                       %d bytes"
                      (String.length payload) count m.m_key_len;
                })))
    m.m_runs;
  remove_stray_runs ~dir ~keep:(List.map fst m.m_runs);
  {
    dir;
    key_len = m.m_key_len;
    quota_bytes;
    bytes =
      List.fold_left (fun acc (_, c) -> acc + (c * m.m_key_len)) 0 m.m_runs;
    runs = List.map (fun (f, c) -> { r_file = f; r_count = c }) m.m_runs;
    next_run = m.m_next_run;
    probes = 0;
  }

let n_runs t = List.length t.runs
let n_keys t = List.fold_left (fun acc r -> acc + r.r_count) 0 t.runs
let n_probes t = t.probes
let n_bytes t = t.bytes
