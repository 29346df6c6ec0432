(** The machine-step relation: the one successor function behind the
    explorer ({!Enum}), the witness search ({!Witness}), the replay
    debugger ([lib/replay]) and the random scheduler ({!Random_run}).

    A {!Node.t} is a machine world plus the two pieces of search-side
    bookkeeping that gate steps: the non-preemptive switch bit [β]
    (Fig. 10) and the per-thread promise budget spent.  The relation
    comes in two halves, so that {!Enum} can decide its partial-order
    ample rule between them (docs/REDUCTION.md):

    - {!local_successors}: thread steps ({!Ps.Thread.steps} order;
      outputs only when the thread is consistent), then promise steps
      (within the budget, [reduction.bound_promises] overriding
      [max_promises]; each placement must stay consistent), then, when
      [reservations] is set, reserve and cancel steps (at most one
      outstanding reservation per thread).  Non-preemptively, promises
      and reservations need the bit on;
    - {!switch_successors}: switches to unfinished threads in ascending
      thread id, from configurations where the current thread is
      consistent (and, non-preemptively, the bit is on or the thread
      has finished).

    Certification goes through {!hooks}: {!plain} calls {!Ps.Cert}
    directly, {!Enum} passes its cached, counting and fault-injecting
    versions.  The enumeration is a pure function of the node and the
    configuration, so a [(kind, choice)] pair identifies one successor
    deterministically — what the replay store persists
    (docs/REPLAY.md). *)

module TidMap = Ps.Machine.TidMap

type discipline = Interleaving | Non_preemptive
(** Fig. 9's interleaving machine or Fig. 10's non-preemptive one. *)

module Node : sig
  type t = {
    world : Ps.Machine.world;
    bit : bool;  (** [β]; always [true] when interleaving *)
    promised : int TidMap.t;  (** promise steps spent, per thread *)
    mutable hv : int;  (** memoized {!hash}; [0] until computed *)
  }

  val make :
    world:Ps.Machine.world -> bit:bool -> promised:int TidMap.t -> t

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
end

type kind = Thread_step | Promise_step | Reservation_step | Switch_step

type succ = {
  kind : kind;
  choice : int;
      (** position in the enumeration of its kind: {!Ps.Thread.steps},
          {!Ps.Thread.promise_steps}, or the reservation list
          ({!Ps.Thread.reserve_steps} when a reservation is allowed,
          then {!Ps.Thread.cancel_steps}); the target thread id for
          switches *)
  tid : int;  (** acting thread: current for steps, target for switches *)
  event : Ps.Event.te option;  (** [None] exactly for switches *)
  state : Node.t;
}

val emit : succ -> Lang.Ast.value option
(** The value the step prints, if it is an output. *)

type hooks = {
  consistent : Ps.Thread.ts -> Ps.Memory.t -> bool;
  candidates :
    Ps.Thread.ts -> Ps.Memory.t -> (Lang.Ast.var * Lang.Ast.value) list;
      (** promise candidates *)
}

val plain : config:Config.t -> program:Lang.Ast.program -> hooks
(** {!Ps.Cert} under the configuration's fuel, capping and
    [promise_mode]. *)

val init : Lang.Ast.program -> (Node.t, string) result
(** Machine init, bit on, no promises spent. *)

val committed_stats :
  config:Config.t -> program:Lang.Ast.program -> Node.t -> bool * int
(** The current thread's consistency (the gate on outputs, switches
    and termination) and the certification-search state count
    ({!Ps.Cert.consistent_stats}). *)

val promise_spent : config:Config.t -> discipline -> Node.t -> bool
(** The current thread could promise but its budget is spent. *)

val local_successors :
  hooks ->
  config:Config.t ->
  discipline:discipline ->
  program:Lang.Ast.program ->
  committed:bool Lazy.t ->
  Node.t ->
  succ list
(** [committed] is the current thread's consistency, forced only when
    an output is enabled. *)

val switch_successors :
  discipline:discipline -> committed:bool Lazy.t -> Node.t -> succ list

val successors :
  ?hooks:hooks ->
  config:Config.t ->
  discipline:discipline ->
  program:Lang.Ast.program ->
  Node.t ->
  succ list
(** Both halves, sharing one consistency check; [hooks] defaults to
    {!plain}. *)

val apply :
  config:Config.t ->
  discipline:discipline ->
  program:Lang.Ast.program ->
  Node.t ->
  kind ->
  choice:int ->
  succ option
(** Replay one recorded choice: [None] if the node has no such
    successor (a corrupt or mismatched trace). *)

val drive :
  config:Config.t ->
  discipline:discipline ->
  program:Lang.Ast.program ->
  (int * Ps.Event.te) list ->
  (Node.t * succ list) option
(** A terminating run whose non-switch steps follow the [(tid, event)]
    schedule exactly, found by backtracking, with switches inserted
    wherever the scheduled thread is not current: the initial node and
    the full trail, or [None] if no run realizes the schedule.  This is
    how shrinking candidates are re-validated. *)

val trail_states : Node.t -> succ list -> Node.t list
(** The [n+1] nodes along a trail, initial node first. *)

