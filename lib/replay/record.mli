(** The recorder: turn a {!Explore.Stepper} trail into persistable
    step records, annotating each step with what it did to memory, how
    the acting thread's view moved, and what its certification gate
    cost (docs/REPLAY.md). *)

val records_of_trail :
  config:Explore.Config.t ->
  program:Lang.Ast.program ->
  Explore.Stepper.Node.t ->
  Explore.Stepper.succ list ->
  Trace.record list
(** One record per trail step.  Deterministic given the trail: the
    annotations (message/view deltas, certification stats) are
    recomputed from the states along the trail. *)

val header :
  ?note:string ->
  config:Explore.Config.t ->
  discipline:Explore.Enum.discipline ->
  outs:Lang.Ast.value list ->
  Lang.Ast.program ->
  Trace.header

val record_witness :
  ?config:Explore.Config.t ->
  ?discipline:Explore.Enum.discipline ->
  ?eager_switch:bool ->
  ?note:string ->
  outs:Lang.Ast.value list ->
  path:string ->
  Lang.Ast.program ->
  (int, string) result
(** Search for a witness of [outs] ({!Explore.Witness.find_trail}) and
    persist its full trail at [path].  Returns the number of steps
    recorded; [Error] if no witness exists within the bounds or the
    store cannot be written. *)

val record_schedule :
  ?config:Explore.Config.t ->
  ?discipline:Explore.Enum.discipline ->
  ?note:string ->
  outs:Lang.Ast.value list ->
  path:string ->
  Lang.Ast.program ->
  Explore.Witness.t ->
  (int, string) result
(** Re-drive a known schedule ({!Explore.Stepper.drive}) and persist
    the resulting trail — how shrunk witnesses are written back out. *)
