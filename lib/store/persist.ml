(* Data-directory lifecycle: recovery on open, WAL append per commit,
   periodic snapshot compaction.

   Layout:
     <dir>/snapshot.json   full graph + version (absent until the first
                           compaction; the base graph then comes from the
                           caller, e.g. the --graph spec)
     <dir>/wal.log         batches committed since the snapshot

   Recovery = load snapshot (or base), replay WAL batches with a version
   above the snapshot's (a crash between snapshot rename and WAL reset
   legitimately leaves already-covered batches behind), truncate the torn
   tail.  Compaction = write snapshot.json.tmp, fsync, rename over, reset
   the WAL. *)

module G = Pgraph.Graph

type t = {
  dir : string;
  compact_every : int;  (* compact after this many batches; 0 = never *)
  wal : Wal.t;
  mutable batches_since_snapshot : int;
  mutable snap_version : int;  (* version covered by snapshot.json; 0 = none *)
}

let wal_path dir = Filename.concat dir "wal.log"
let snapshot_path dir = Filename.concat dir "snapshot.json"
let epoch_path dir = Filename.concat dir "epoch"

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (e, _, _) -> raise (Wal.Io_error (Unix.error_message e))

(* The snapshot carries a trailing checksum footer so a compaction artifact
   corrupted after the rename (bit rot, partial overwrite) is detected at
   open instead of deserialized silently.  Footer-less files are accepted
   as-is: they predate the footer. *)
let crc_footer crc = Printf.sprintf "\n#crc32:%08x\n" crc
let crc_footer_len = String.length (crc_footer 0)

(* The length of the snapshot's JSON body: [`Ok n] with a matching
   footer, [`Legacy n] without one. *)
let split_crc_footer whole =
  let n = String.length whole in
  if n < crc_footer_len then `Legacy n
  else
    let body_len = n - crc_footer_len in
    if String.sub whole body_len 8 = "\n#crc32:" then
      if String.sub whole body_len crc_footer_len = crc_footer (Crc32.update 0 whole 0 body_len)
      then `Ok body_len
      else `Corrupt
    else `Legacy n

let load_snapshot path =
  let whole =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match split_crc_footer whole with
  | `Corrupt -> Error "checksum mismatch"
  | `Ok len | `Legacy len -> Codec.graph_of_string ~len whole

type recovery = {
  r_graph : G.t;
  r_version : int;       (* version of the last committed batch replayed *)
  r_replayed : int;      (* batches applied from the WAL *)
  r_truncated : bool;    (* a torn/corrupt tail was dropped *)
}

let open_dir ?(hooks = Wal.no_hooks) ?(compact_every = 0) dir ~base =
  ensure_dir dir;
  let graph, snap_version =
    if Sys.file_exists (snapshot_path dir) then
      match load_snapshot (snapshot_path dir) with
      | Ok gv -> gv
      | Error msg -> raise (Wal.Io_error ("corrupt snapshot: " ^ msg))
    else (base (), 0)
  in
  let had_file = Sys.file_exists (wal_path dir) in
  let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
  let batches, valid_bytes = Wal.scan (wal_path dir) in
  let version = ref snap_version and replayed = ref 0 and good_bytes = ref 0 in
  (try
     List.iter
       (fun ((b : Codec.batch), end_off) ->
         if b.Codec.b_version > !version then begin
           List.iter (G.apply_mutation graph) b.Codec.b_ops;
           version := b.Codec.b_version;
           incr replayed
         end;
         good_bytes := end_off)
       batches
   with Invalid_argument _ ->
     (* A checksum-valid batch that no longer applies (schema/base
        mismatch): stop replaying and truncate it away with the tail
        rather than crash — the committed prefix up to here is intact. *)
     ());
  ignore valid_bytes;  (* == !good_bytes unless replay stopped early *)
  let keep = !good_bytes in
  let truncated = had_file && keep < file_size (wal_path dir) in
  let wal = Wal.open_append ~hooks ~valid_bytes:keep (wal_path dir) in
  ( { dir; compact_every; wal; batches_since_snapshot = List.length batches; snap_version },
    { r_graph = graph; r_version = !version; r_replayed = !replayed; r_truncated = truncated } )

(* Atomic snapshot publication: tmp + fsync + rename, then the WAL is
   redundant and restarts empty. *)
let compact t graph ~version =
  let tmp = snapshot_path t.dir ^ ".tmp" in
  (try
     let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         let text = Obs.Json.to_string (Codec.graph_to_json ~version graph) in
         write_all fd text;
         write_all fd (crc_footer (Crc32.string text));
         Unix.fsync fd);
     Unix.rename tmp (snapshot_path t.dir)
   with
   | Unix.Unix_error (e, _, _) -> raise (Wal.Io_error (Unix.error_message e))
   | Sys_error msg -> raise (Wal.Io_error msg));
  Wal.reset t.wal;
  t.batches_since_snapshot <- 0;
  t.snap_version <- version

let commit t graph ~version ~ops =
  Wal.append t.wal { Codec.b_version = version; b_ops = ops };
  t.batches_since_snapshot <- t.batches_since_snapshot + 1;
  if t.compact_every > 0 && t.batches_since_snapshot >= t.compact_every then
    compact t graph ~version

let is_open t = Wal.is_open t.wal
let close t = Wal.close t.wal

let dir t = t.dir
let snapshot_version t = t.snap_version

(* Replication catch-up: the committed batches with versions above
   [version], straight off the on-disk WAL's valid prefix.  [None] when
   the log no longer reaches back that far (the snapshot advanced past
   the follower) — the caller must ship a full snapshot instead. *)
let batches_since t ~version =
  if t.snap_version > version then None
  else
    let batches, _ = Wal.scan (wal_path t.dir) in
    Some
      (List.filter_map
         (fun ((b : Codec.batch), _off) ->
           if b.Codec.b_version > version then Some b else None)
         batches)

(* Epoch persistence: a tiny [<dir>/epoch] file so a rebooted node cannot
   resurrect an epoch it already stood down from.  Written atomically
   (tmp + rename); absent means epoch 1 (never promoted/fenced). *)
let read_epoch dir =
  let path = epoch_path dir in
  if not (Sys.file_exists path) then None
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match int_of_string_opt (String.trim (really_input_string ic (in_channel_length ic))) with
        | Some e when e >= 1 -> Some e
        | _ -> None)

let write_epoch dir epoch =
  ensure_dir dir;
  let tmp = epoch_path dir ^ ".tmp" in
  (try
     let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         write_all fd (string_of_int epoch ^ "\n");
         Unix.fsync fd);
     Unix.rename tmp (epoch_path dir)
   with
   | Unix.Unix_error (e, _, _) -> raise (Wal.Io_error (Unix.error_message e))
   | Sys_error msg -> raise (Wal.Io_error msg))
