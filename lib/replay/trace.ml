module Sexp = Lang.Sexp
module P = Service.Proto

type kind = Explore.Stepper.kind =
  | Thread_step
  | Promise_step
  | Reservation_step
  | Switch_step

type record = {
  num : int;
  tid : int;
  kind : kind;
  choice : int;
  event : Ps.Event.te option;
  loc : Lang.Ast.var option;
  committed : bool;
  cert_states : int;
  msgs_added : string list;
  view_delta : string option;
}

type header = {
  version : int;
  program : Lang.Ast.program;
  discipline : Explore.Enum.discipline;
  outs : Lang.Ast.value list;
  config : Explore.Config.t;
  note : string;
}

let current_version = 1

(* ---- thread events ---- *)

let mode_read m = Sexp.Atom (Format.asprintf "%a" Lang.Modes.pp_read m)
let mode_write m = Sexp.Atom (Format.asprintf "%a" Lang.Modes.pp_write m)
let mode_fence m = Sexp.Atom (Format.asprintf "%a" Lang.Modes.pp_fence m)

let sexp_of_te : Ps.Event.te -> Sexp.t = function
  | Ps.Event.Tau -> Sexp.List [ Sexp.Atom "tau" ]
  | Ps.Event.Out v -> Sexp.List [ Sexp.Atom "out"; P.sexp_of_int v ]
  | Ps.Event.Rd (m, x, v) ->
      Sexp.List
        [ Sexp.Atom "rd"; mode_read m; P.atom_of_string x; P.sexp_of_int v ]
  | Ps.Event.Wr (m, x, v) ->
      Sexp.List
        [ Sexp.Atom "wr"; mode_write m; P.atom_of_string x; P.sexp_of_int v ]
  | Ps.Event.Upd (mr, mw, x, vr, vw) ->
      Sexp.List
        [
          Sexp.Atom "upd";
          mode_read mr;
          mode_write mw;
          P.atom_of_string x;
          P.sexp_of_int vr;
          P.sexp_of_int vw;
        ]
  | Ps.Event.Fnc m -> Sexp.List [ Sexp.Atom "fnc"; mode_fence m ]
  | Ps.Event.Prm -> Sexp.List [ Sexp.Atom "prm" ]
  | Ps.Event.Rsv -> Sexp.List [ Sexp.Atom "rsv" ]
  | Ps.Event.Ccl -> Sexp.List [ Sexp.Atom "ccl" ]

let ( let* ) = Result.bind

let read_mode_of_sexp = function
  | Sexp.Atom s -> (
      match Lang.Modes.read_of_string s with
      | Some m -> Ok m
      | None -> Error ("bad read mode " ^ s))
  | Sexp.List _ -> Error "read mode: expected atom"

let write_mode_of_sexp = function
  | Sexp.Atom s -> (
      match Lang.Modes.write_of_string s with
      | Some m -> Ok m
      | None -> Error ("bad write mode " ^ s))
  | Sexp.List _ -> Error "write mode: expected atom"

let fence_mode_of_sexp = function
  | Sexp.Atom s -> (
      match Lang.Modes.fence_of_string s with
      | Some m -> Ok m
      | None -> Error ("bad fence mode " ^ s))
  | Sexp.List _ -> Error "fence mode: expected atom"

let te_of_sexp = function
  | Sexp.List [ Sexp.Atom "tau" ] -> Ok Ps.Event.Tau
  | Sexp.List [ Sexp.Atom "out"; v ] ->
      let* v = P.int_of_sexp v in
      Ok (Ps.Event.Out v)
  | Sexp.List [ Sexp.Atom "rd"; m; x; v ] ->
      let* m = read_mode_of_sexp m in
      let* x = P.string_of_atom x in
      let* v = P.int_of_sexp v in
      Ok (Ps.Event.Rd (m, x, v))
  | Sexp.List [ Sexp.Atom "wr"; m; x; v ] ->
      let* m = write_mode_of_sexp m in
      let* x = P.string_of_atom x in
      let* v = P.int_of_sexp v in
      Ok (Ps.Event.Wr (m, x, v))
  | Sexp.List [ Sexp.Atom "upd"; mr; mw; x; vr; vw ] ->
      let* mr = read_mode_of_sexp mr in
      let* mw = write_mode_of_sexp mw in
      let* x = P.string_of_atom x in
      let* vr = P.int_of_sexp vr in
      let* vw = P.int_of_sexp vw in
      Ok (Ps.Event.Upd (mr, mw, x, vr, vw))
  | Sexp.List [ Sexp.Atom "fnc"; m ] ->
      let* m = fence_mode_of_sexp m in
      Ok (Ps.Event.Fnc m)
  | Sexp.List [ Sexp.Atom "prm" ] -> Ok Ps.Event.Prm
  | Sexp.List [ Sexp.Atom "rsv" ] -> Ok Ps.Event.Rsv
  | Sexp.List [ Sexp.Atom "ccl" ] -> Ok Ps.Event.Ccl
  | _ -> Error "undecodable thread event"

(* ---- options / kinds ---- *)

let sexp_of_opt f = function
  | None -> Sexp.Atom "none"
  | Some v -> Sexp.List [ Sexp.Atom "some"; f v ]

let opt_of_sexp f = function
  | Sexp.Atom "none" -> Ok None
  | Sexp.List [ Sexp.Atom "some"; v ] ->
      let* v = f v in
      Ok (Some v)
  | _ -> Error "expected none | (some _)"

let sexp_of_kind = function
  | Thread_step -> Sexp.Atom "thread"
  | Promise_step -> Sexp.Atom "promise"
  | Reservation_step -> Sexp.Atom "reservation"
  | Switch_step -> Sexp.Atom "switch"

let kind_of_sexp = function
  | Sexp.Atom "thread" -> Ok Thread_step
  | Sexp.Atom "promise" -> Ok Promise_step
  | Sexp.Atom "reservation" -> Ok Reservation_step
  | Sexp.Atom "switch" -> Ok Switch_step
  | _ -> Error "bad step kind"

(* ---- records ---- *)

let sexp_of_record r =
  Sexp.List
    [
      Sexp.Atom "step";
      P.sexp_of_int r.num;
      P.sexp_of_int r.tid;
      sexp_of_kind r.kind;
      P.sexp_of_int r.choice;
      sexp_of_opt sexp_of_te r.event;
      sexp_of_opt P.atom_of_string r.loc;
      P.sexp_of_bool r.committed;
      P.sexp_of_int r.cert_states;
      Sexp.List (List.map P.atom_of_string r.msgs_added);
      sexp_of_opt P.atom_of_string r.view_delta;
    ]

let record_of_sexp = function
  | Sexp.List
      [
        Sexp.Atom "step";
        num;
        tid;
        kind;
        choice;
        event;
        loc;
        committed;
        cert_states;
        Sexp.List msgs;
        view_delta;
      ] ->
      let* num = P.int_of_sexp num in
      let* tid = P.int_of_sexp tid in
      let* kind = kind_of_sexp kind in
      let* choice = P.int_of_sexp choice in
      let* event = opt_of_sexp te_of_sexp event in
      let* loc = opt_of_sexp P.string_of_atom loc in
      let* committed = P.bool_of_sexp committed in
      let* cert_states = P.int_of_sexp cert_states in
      let* msgs_added =
        List.fold_right
          (fun m acc ->
            let* acc = acc in
            let* m = P.string_of_atom m in
            Ok (m :: acc))
          msgs (Ok [])
      in
      let* view_delta = opt_of_sexp P.string_of_atom view_delta in
      Ok
        {
          num;
          tid;
          kind;
          choice;
          event;
          loc;
          committed;
          cert_states;
          msgs_added;
          view_delta;
        }
  | _ -> Error "undecodable step record"

(* ---- header ---- *)

let sexp_of_discipline = function
  | Explore.Enum.Interleaving -> Sexp.Atom "il"
  | Explore.Enum.Non_preemptive -> Sexp.Atom "np"

let discipline_of_sexp = function
  | Sexp.Atom "il" -> Ok Explore.Enum.Interleaving
  | Sexp.Atom "np" -> Ok Explore.Enum.Non_preemptive
  | _ -> Error "bad discipline"

let sexp_of_header h =
  Sexp.List
    [
      Sexp.Atom "replay-header";
      P.sexp_of_int h.version;
      Sexp.sexp_of_program h.program;
      sexp_of_discipline h.discipline;
      Sexp.List (List.map P.sexp_of_int h.outs);
      P.sexp_of_config h.config;
      P.atom_of_string h.note;
    ]

let header_of_sexp = function
  | Sexp.List
      [
        Sexp.Atom "replay-header";
        version;
        program;
        discipline;
        Sexp.List outs;
        config;
        note;
      ] ->
      let* version = P.int_of_sexp version in
      let* () =
        if version = current_version then Ok ()
        else Error (Printf.sprintf "unsupported trace version %d" version)
      in
      let* program = Sexp.program_of_sexp program in
      let* discipline = discipline_of_sexp discipline in
      let* outs =
        List.fold_right
          (fun o acc ->
            let* acc = acc in
            let* o = P.int_of_sexp o in
            Ok (o :: acc))
          outs (Ok [])
      in
      let* config = P.config_of_sexp config in
      let* note = P.string_of_atom note in
      Ok { version; program; discipline; outs; config; note }
  | _ -> Error "undecodable trace header"

(* ---- misc ---- *)

let equal_record (a : record) b =
  a.num = b.num && a.tid = b.tid && a.kind = b.kind && a.choice = b.choice
  && Option.equal Ps.Event.equal_te a.event b.event
  && Option.equal String.equal a.loc b.loc
  && a.committed = b.committed
  && a.cert_states = b.cert_states
  && List.equal String.equal a.msgs_added b.msgs_added
  && Option.equal String.equal a.view_delta b.view_delta

let pp_record ppf r =
  (match r.event with
  | Some e -> Format.fprintf ppf "%d. t%d: %a" r.num r.tid Ps.Event.pp_te e
  | None -> Format.fprintf ppf "%d. -> t%d" r.num r.tid);
  if r.msgs_added <> [] then
    Format.fprintf ppf "  mem %s" (String.concat " " (List.map (fun m -> "+" ^ m) r.msgs_added));
  (match r.view_delta with
  | Some d -> Format.fprintf ppf "  view %s" d
  | None -> ());
  if r.cert_states > 0 then Format.fprintf ppf "  cert:%d" r.cert_states
