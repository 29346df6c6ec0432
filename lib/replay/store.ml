let magic = "psopt-replay/2"
let index_magic = "psopt-replay-idx/2"

module P = Service.Proto

type error =
  | Missing of string
  | Bad_magic of string
  | Bad_header of string
  | Truncated of int
  | Corrupt_record of int * string

let error_to_string = function
  | Missing p -> Printf.sprintf "no such trace: %s" p
  | Bad_magic p -> Printf.sprintf "%s: not a psopt replay trace" p
  | Bad_header m -> Printf.sprintf "damaged trace header: %s" m
  | Truncated off -> Printf.sprintf "trace truncated mid-record at byte %d" off
  | Corrupt_record (n, m) -> Printf.sprintf "corrupt record %d: %s" n m

(* ------------------------------------------------------------------ *)
(* Framing: the wire framing of {!Service.Proto} — a 4-byte big-endian
   length and the payload's MD5, then the payload. *)

let write_frame oc payload =
  output_string oc (P.frame_header payload);
  output_string oc payload

type frame_error =
  | End  (* clean end of file exactly at a frame boundary *)
  | Cut of int  (* the data ran out inside the frame starting here *)
  | Bad of string  (* bad length word or checksum mismatch *)

let read_frame ic =
  let start = pos_in ic in
  if start >= in_channel_length ic then Error End
  else
    match really_input_string ic P.header_len with
    | exception End_of_file -> Error (Cut start)
    | hdr -> (
        match P.parse_frame_header hdr with
        | Error m -> Error (Bad m)
        | Ok (n, digest) -> (
            match really_input_string ic n with
            | exception End_of_file -> Error (Cut start)
            | payload ->
                P.check_payload ~digest payload
                |> Result.map_error (fun m -> Bad m)))

(* ------------------------------------------------------------------ *)
(* Atomic publication (the Service.Store idiom): write to a temp file
   in the destination directory, rename into place on close. *)

let tmp_counter = ref 0

let tmp_path path =
  incr tmp_counter;
  Filename.concat
    (Filename.dirname path)
    (Printf.sprintf ".tmp.%d.%d.%s" (Unix.getpid ()) !tmp_counter
       (Filename.basename path))

type ix = {
  off : int;
  ix_tid : int;
  ix_kind : Trace.kind;
  ix_loc : string option;
}

(* Index kinds and locations travel as the trace codec's atoms, so
   arbitrary location names cannot break the line-oriented sidecar. *)
let enc_kind k = Lang.Sexp.to_string (Trace.sexp_of_kind k)
let dec_kind k = Trace.kind_of_sexp (Lang.Sexp.Atom k)

let enc_loc = function
  | None -> "-"
  | Some s -> Lang.Sexp.to_string (P.atom_of_string s)

let dec_loc = function
  | "-" -> Ok None
  | s -> Result.map Option.some (P.string_of_atom (Lang.Sexp.Atom s))

let index_path path = path ^ ".idx"

let write_index path (entries : ix list) ~data_size =
  let tmp = tmp_path (index_path path) in
  let oc = open_out_bin tmp in
  (try
     Printf.fprintf oc "%s\ndata %d %d\n" index_magic data_size
       (List.length entries);
     List.iteri
       (fun num e ->
         Printf.fprintf oc "%d %d %d %s %s\n" num e.off e.ix_tid
           (enc_kind e.ix_kind) (enc_loc e.ix_loc))
       entries;
     close_out oc;
     Unix.rename tmp (index_path path)
   with exn ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn)

(* [None]: the index is unusable (missing, damaged, or stale w.r.t.
   the data file's size) — callers rebuild by scanning instead. *)
let load_index path ~data_size =
  let ( let* ) = Option.bind in
  match open_in_bin (index_path path) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let line () = try Some (input_line ic) with End_of_file -> None in
          let* m = line () in
          if m <> index_magic then None
          else
            let* data = line () in
            match String.split_on_char ' ' data with
            | [ "data"; size; count ] -> (
                match (int_of_string_opt size, int_of_string_opt count) with
                | Some size, Some count when size = data_size ->
                    let rec entries num acc =
                      if num = count then
                        match line () with
                        | None -> Some (Array.of_list (List.rev acc))
                        | Some _ -> None
                      else
                        let* l = line () in
                        match String.split_on_char ' ' l with
                        | [ n; off; tid; k; loc ] -> (
                            match
                              ( int_of_string_opt n,
                                int_of_string_opt off,
                                int_of_string_opt tid,
                                dec_kind k,
                                dec_loc loc )
                            with
                            | Some n, Some off, Some tid, Ok k, Ok loc
                              when n = num ->
                                entries (num + 1)
                                  ({ off; ix_tid = tid; ix_kind = k; ix_loc = loc }
                                  :: acc)
                            | _ -> None)
                        | _ -> None
                    in
                    entries 0 []
                | _ -> None)
            | _ -> None)

(* ------------------------------------------------------------------ *)
(* Writer. *)

type writer = {
  w_path : string;
  w_tmp : string;
  w_oc : out_channel;
  mutable w_entries : ix list;  (* reversed *)
  mutable w_done : bool;
}

let ix_of_record (r : Trace.record) ~off =
  { off; ix_tid = r.Trace.tid; ix_kind = r.Trace.kind; ix_loc = r.Trace.loc }

let create path header =
  let tmp = tmp_path path in
  match open_out_bin tmp with
  | exception Sys_error m -> Error m
  | oc -> (
      try
        Printf.fprintf oc "%s\n" magic;
        write_frame oc (Lang.Sexp.to_string (Trace.sexp_of_header header));
        Ok { w_path = path; w_tmp = tmp; w_oc = oc; w_entries = []; w_done = false }
      with Sys_error m ->
        close_out_noerr oc;
        (try Sys.remove tmp with Sys_error _ -> ());
        Error m)

let append w (r : Trace.record) =
  if w.w_done then Error "writer already closed"
  else
    try
      let off = pos_out w.w_oc in
      write_frame w.w_oc (Lang.Sexp.to_string (Trace.sexp_of_record r));
      w.w_entries <- ix_of_record r ~off :: w.w_entries;
      Ok ()
    with Sys_error m -> Error m

let abort w =
  if not w.w_done then begin
    w.w_done <- true;
    close_out_noerr w.w_oc;
    try Sys.remove w.w_tmp with Sys_error _ -> ()
  end

let close w =
  if w.w_done then Error "writer already closed"
  else begin
    w.w_done <- true;
    try
      close_out w.w_oc;
      let data_size = (Unix.stat w.w_tmp).Unix.st_size in
      Unix.rename w.w_tmp w.w_path;
      write_index w.w_path (List.rev w.w_entries) ~data_size;
      Ok ()
    with
    | Sys_error m ->
        (try Sys.remove w.w_tmp with Sys_error _ -> ());
        Error m
    | Unix.Unix_error (e, _, _) ->
        (try Sys.remove w.w_tmp with Sys_error _ -> ());
        Error (Unix.error_message e)
  end

let write_all path header records =
  let ( let* ) = Result.bind in
  let* w = create path header in
  let rec go = function
    | [] -> close w
    | r :: rest -> (
        match append w r with
        | Ok () -> go rest
        | Error _ as e ->
            abort w;
            e)
  in
  go records

(* ------------------------------------------------------------------ *)
(* Reader. *)

type reader = {
  r_path : string;
  r_ic : in_channel;
  r_header : Trace.header;
  r_ix : ix array;
  r_rebuilt : bool;
}

let header r = r.r_header
let length r = Array.length r.r_ix
let index_rebuilt r = r.r_rebuilt
let close_reader r = close_in_noerr r.r_ic

(* Scan every record frame from the current position, collecting index
   entries; decodes each record (a scan is also a full validation). *)
let scan_entries ic =
  let rec go n acc =
    let off = pos_in ic in
    match read_frame ic with
    | Error End -> Ok (Array.of_list (List.rev acc))
    | Error (Cut off) -> Error (Truncated off)
    | Error (Bad msg) -> Error (Corrupt_record (n, msg))
    | Ok payload -> (
        match Lang.Sexp.parse payload with
        | Error m -> Error (Corrupt_record (n, m))
        | Ok sx -> (
            match Trace.record_of_sexp sx with
            | Error m -> Error (Corrupt_record (n, m))
            | Ok r ->
                if r.Trace.num <> n then
                  Error
                    (Corrupt_record
                       (n, Printf.sprintf "record numbered %d" r.Trace.num))
                else go (n + 1) (ix_of_record r ~off :: acc)))
  in
  go 0 []

let open_ path =
  if not (Sys.file_exists path) then Error (Missing path)
  else
    match open_in_bin path with
    | exception Sys_error m -> Error (Bad_header m)
    | ic -> (
        let fail e =
          close_in_noerr ic;
          Error e
        in
        match input_line ic with
        | exception End_of_file -> fail (Bad_magic path)
        | m when m <> magic -> fail (Bad_magic path)
        | _ -> (
            match read_frame ic with
            | Error End -> fail (Bad_header "empty trace")
            | Error (Cut _) -> fail (Bad_header "truncated header frame")
            | Error (Bad msg) -> fail (Bad_header msg)
            | Ok payload -> (
                match Lang.Sexp.parse payload with
                | Error m -> fail (Bad_header m)
                | Ok sx -> (
                    match Trace.header_of_sexp sx with
                    | Error m -> fail (Bad_header m)
                    | Ok header -> (
                        let body_start = pos_in ic in
                        let data_size = in_channel_length ic in
                        match load_index path ~data_size with
                        | Some ix ->
                            Ok
                              {
                                r_path = path;
                                r_ic = ic;
                                r_header = header;
                                r_ix = ix;
                                r_rebuilt = false;
                              }
                        | None -> (
                            seek_in ic body_start;
                            match scan_entries ic with
                            | Error e -> fail e
                            | Ok ix ->
                                Ok
                                  {
                                    r_path = path;
                                    r_ic = ic;
                                    r_header = header;
                                    r_ix = ix;
                                    r_rebuilt = true;
                                  }))))))

let read r n =
  if n < 0 || n >= Array.length r.r_ix then
    Error (Corrupt_record (n, "record number out of range"))
  else begin
    seek_in r.r_ic r.r_ix.(n).off;
    match read_frame r.r_ic with
    | Error End -> Error (Truncated r.r_ix.(n).off)
    | Error (Cut off) -> Error (Truncated off)
    | Error (Bad msg) -> Error (Corrupt_record (n, msg))
    | Ok payload -> (
        match Lang.Sexp.parse payload with
        | Error m -> Error (Corrupt_record (n, m))
        | Ok sx -> (
            match Trace.record_of_sexp sx with
            | Error m -> Error (Corrupt_record (n, m))
            | Ok rec_ ->
                if rec_.Trace.num <> n then
                  Error
                    (Corrupt_record
                       (n, Printf.sprintf "record numbered %d" rec_.Trace.num))
                else Ok rec_))
  end

let read_all r =
  let rec go n acc =
    if n = Array.length r.r_ix then Ok (List.rev acc)
    else
      match read r n with
      | Error e -> Error e
      | Ok rec_ -> go (n + 1) (rec_ :: acc)
  in
  go 0 []

let find_ix r ~from ~f =
  let n = Array.length r.r_ix in
  let rec go i =
    if i >= n then None else if f r.r_ix.(i) then Some i else go (i + 1)
  in
  go (max 0 from)

let find_scan r ~from ~f =
  let n = Array.length r.r_ix in
  let rec go i =
    if i >= n then Ok None
    else
      match read r i with
      | Error e -> Error e
      | Ok rec_ -> if f rec_ then Ok (Some i) else go (i + 1)
  in
  go (max 0 from)
