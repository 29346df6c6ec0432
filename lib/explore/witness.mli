(** Execution witnesses: concrete annotated schedules for observable
    outcomes, in the style of the paper's annotated executions
    (Sec. 2.1, e.g. [t1: promise (y_rlx := 1); t2: r2 := y_rlx //1;
    ...]).

    Given a program and a target output sequence, the search explores
    the same machine-step space as {!Enum} (successor enumeration
    shared through {!Stepper}) and returns the sequence of (thread id,
    thread event) pairs of one execution producing exactly those
    outputs and terminating — or reports that none exists within the
    bounds (which, for exact explorations, refutes observability).

    This is how refinement counterexamples become debuggable: ask the
    target program for a witness of the offending trace and read off
    where the promise/read choices diverge from anything the source
    can do.  [psopt record] persists the underlying {!Stepper} trail
    into a replay store so the witness can be stepped through
    interactively and shrunk (docs/REPLAY.md). *)

type step = { tid : int; event : Ps.Event.te }

type t = step list

val find :
  ?config:Config.t ->
  ?discipline:Enum.discipline ->
  outs:Lang.Ast.value list ->
  Lang.Ast.program ->
  t option
(** A terminating execution printing exactly [outs], or [None] if the
    bounded search finds none. *)

val find_trail :
  ?config:Config.t ->
  ?discipline:Enum.discipline ->
  ?eager_switch:bool ->
  outs:Lang.Ast.value list ->
  Lang.Ast.program ->
  (Stepper.Node.t * Stepper.succ list) option
(** The same search returning the full {!Stepper} trail — initial
    state plus every successor taken, context switches included —
    which is what the replay recorder persists.  [eager_switch] makes
    the search try context switches {e first}, yielding a deliberately
    switch-heavy schedule (useful as shrinker input; the default DFS
    order runs each thread as long as possible, so its witnesses are
    often already switch-minimal). *)

val of_trail : Stepper.succ list -> t
(** Forget the stepper bookkeeping: the witness schedule of a trail
    (switch steps dropped). *)

val forbidden :
  ?config:Config.t ->
  outs:Lang.Ast.value list ->
  Lang.Ast.program ->
  bool
(** [true] when no witness exists and the exploration was exact — a
    bounded-exhaustive proof that the outcome is unobservable. *)

(** {2 Annotation}

    A found schedule replayed deterministically, each promise
    cross-referenced (by location and timestamp) with the write that
    later fulfills it — the paper's bracketed executions. *)

type note =
  | Plain
  | Promises of { msg : string; fulfilled_at : int option }
      (** a promise step, the message it announced, and the trail
          position of the fulfilling write ([None]: certification
          covered it but the schedule ended first) *)
  | Fulfills of { msg : string; promised_at : int option }
      (** a write discharging an outstanding promise *)

type annotated_step = {
  num : int;  (** absolute trail position, context switches included —
                  the step numbers [psopt replay] navigates by *)
  tid : int;
  event : Ps.Event.te option;  (** [None] for a context switch *)
  note : note;
}

val annotate :
  ?config:Config.t ->
  ?discipline:Enum.discipline ->
  Lang.Ast.program ->
  t ->
  annotated_step list option
(** Replay the schedule ({!Stepper.drive}) and annotate it.  [None] if
    the schedule does not drive to a terminal state under this
    configuration (it did not come from {!find} under the same
    bounds). *)

val pp_annotated : Format.formatter -> annotated_step list -> unit
(** Numbered, promise-annotated rendering; silent local steps elided,
    context switches shown as [-> t1]. *)

val pp : Format.formatter -> t -> unit
(** Prints the schedule in the paper's bracketed style, steps numbered
    by schedule position, silent local steps elided. *)

val pp_full : Format.formatter -> t -> unit
(** Every step, local computation included. *)
