(** A single-execution interpreter with a pseudo-random scheduler.

    Unlike {!Enum}, which computes the full behaviour set, this module
    runs one execution: a seeded uniform walk over the interleaving
    machine's {!Stepper.successors}, promise-free (promises only matter
    when hunting for weak behaviours exhaustively).  It is the workhorse of the smoke-test
    examples and of throughput benches, and doubles as a quick sanity
    sampler: every trace it produces must be in the enumerated set —
    a property the test suite checks on the litmus corpus. *)

type run_result = {
  trace : Ps.Event.trace;
  steps : int;
  final : Ps.Machine.world;
}

val run :
  ?seed:int ->
  ?max_steps:int ->
  Lang.Ast.program ->
  (run_result, string) result

val run_exn : ?seed:int -> ?max_steps:int -> Lang.Ast.program -> run_result

val sample :
  ?seed:int ->
  ?max_steps:int ->
  runs:int ->
  Lang.Ast.program ->
  (Lang.Ast.value list * int) list
(** litmus7-style sampling: run [runs] random executions and return
    the frequency of each completed output sequence, most frequent
    first.  A sampler only ever {e under}-approximates the behaviour
    set (and it is promise-free, so it misses LB-style outcomes
    entirely) — the contrast with {!Enum} is the point: tests check
    every sampled outcome is enumerated, and the quickstart shows
    outcomes sampling cannot reach. *)
