(** The non-preemptive semantics (Sec. 4, Fig. 10).

    The non-preemptive machine runs the {e same} thread-step relation
    as PS2.1 ({!Ps.Thread.steps}) but threads a "switch bit" [β]
    through execution:

    - an [NA] step (non-atomic access, or no memory/synchronization
      effect) turns the bit {e off} ([•]);
    - an [AT] step (atomic access, update, fence, output) turns it
      {e on} ([◦]);
    - promise and reserve steps require the bit on and keep it on;
    - cancel steps are allowed anywhere and leave the bit unchanged;
    - a context switch requires the bit on.

    Consequently a block of non-atomic accesses runs without
    interruption — but its writes may still have been promised before
    the block, and its reads still pick among all view-compatible
    messages, which is why the non-preemptive machine produces exactly
    the behaviours of the interleaving one (Theorem 4.1; validated
    exhaustively by {!Explore} on the litmus corpus, experiment E9).

    The machine itself is {!Explore.Stepper} under its
    [Non_preemptive] discipline; this module holds the switch-bit
    rule it threads. *)

val bit_after : Ps.Event.te -> before:bool -> bool option
(** [bit_after te ~before] is the switch bit after a thread step
    labelled [te] from a configuration with bit [before], or [None]
    if the step is forbidden (promise/reserve with the bit off) —
    the first rule of Fig. 10. *)
