(** Counterexample shrinking: ddmin over schedule switch points, and a
    greedy program reducer — both re-validating every candidate, so the
    result always still exhibits the original verdict
    (docs/REPLAY.md).

    A recorded schedule cannot shrink by dropping steps: a terminal
    configuration needs every thread to run to completion, so the
    per-thread event multiset is fixed.  What {e can} shrink is the
    interleaving — how often control changes hands — and the program
    itself.  {!schedule} minimizes context switches: the schedule is
    split into maximal per-thread segments, each boundary is a switch
    point, and dropping a boundary defers that segment's events to the
    next emitted segment of the same thread (or to the tail).  Every
    candidate is replayed through {!Explore.Stepper.drive} and its
    output sequence compared, so only genuinely executable,
    observation-equivalent schedules survive; ddmin terminates on a
    1-minimal set of switch points. *)

val ddmin : check:('a list -> bool) -> 'a list -> 'a list
(** Zeller-Hildebrandt minimizing delta debugging on lists.  [check]
    must hold of the input; the result is a subset on which [check]
    holds and which is 1-minimal: removing any single element breaks
    [check].  [check []] is tried first. *)

type schedule_result = {
  witness : Explore.Witness.t;  (** the shrunk schedule *)
  init : Explore.Stepper.Node.t;
  trail : Explore.Stepper.succ list;
      (** a full replay of [witness], recordable via {!Record} *)
  switches_before : int;
  switches_after : int;
  candidates_tried : int;
}

val schedule :
  ?config:Explore.Config.t ->
  ?discipline:Explore.Enum.discipline ->
  Lang.Ast.program ->
  Explore.Witness.t ->
  (schedule_result, string) result
(** Minimize the context switches of a witness schedule, preserving
    its output sequence.  Fails if the input schedule itself does not
    drive to a terminal state under this configuration. *)

val program :
  keep:(Lang.Ast.program -> bool) ->
  Lang.Ast.program ->
  Lang.Ast.program * int
(** Greedy structural shrinking to a fixpoint: drop a whole thread,
    delete an instruction, collapse a branch to one of its arms,
    shrink a constant toward zero — accepting any candidate that is
    well-formed ({!Lang.Wf.check}), satisfies [keep], and strictly
    decreases program size.  Returns the reduced program and the
    number of candidates tried.  [keep] is the reproduction check
    (e.g. "the witness outcome is still observable" or "refinement
    still fails"); soundness discussion in docs/REPLAY.md. *)
