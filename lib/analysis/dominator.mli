(** Dominators over a code heap's CFG, used to find natural loops for
    loop-invariant code motion.

    Cooper, Harvey and Kennedy's iterative algorithm ("A Simple, Fast
    Dominance Algorithm", 2001): immediate dominators as an int array
    over reverse-postorder indices, refined by a two-finger
    nearest-common-ancestor walk until stable.  Each sweep costs
    O(E · depth) and reducible CFGs stabilize after two sweeps, so
    [compute] is near-linear on the loop nests the passes see; the
    dominator tree is then numbered in preorder with subtree sizes, so
    [dominates] and [idom] are O(1) after a label lookup. *)

type t

val compute : Lang.Ast.codeheap -> t

val dominates : t -> Lang.Ast.label -> Lang.Ast.label -> bool
(** [dominates t a b]: every path from the entry to [b] goes through
    [a].  Reflexive.  Unreachable blocks are dominated by everything;
    a reachable label without a block is dominated only by itself. *)

val idom : t -> Lang.Ast.label -> Lang.Ast.label option
(** Immediate dominator ([None] for the entry, unreachable labels and
    reachable labels without a block). *)
