open Lang.Ast

(* Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm"
   (2001).  Reachable labels are numbered in reverse postorder; idom.(i)
   is the RPO index of i's immediate dominator, and i itself for a root
   of the dominator forest: the entry, and every reachable label without
   a block (it has no predecessors to meet over, so nothing but itself
   dominates it).  The dominator forest is then numbered in preorder
   with subtree sizes, so an ancestor test is two integer comparisons. *)
type t = {
  index : (label, int) Hashtbl.t;  (* RPO index of each reachable label *)
  labels : label array;  (* RPO index -> label *)
  idom : int array;
  pre : int array;  (* preorder number in the dominator forest *)
  size : int array;  (* subtree size in the dominator forest *)
}

let compute (ch : codeheap) =
  let labels = Array.of_list (Lang.Cfg.reverse_postorder ch) in
  let n = Array.length labels in
  let index = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun i l -> Hashtbl.replace index l i) labels;
  (* Reachable predecessors, by RPO index. *)
  let preds = Array.make n [] in
  Array.iteri
    (fun i l ->
      match LabelMap.find_opt l ch.blocks with
      | None -> ()
      | Some b ->
          List.iter
            (fun s ->
              let j = Hashtbl.find index s in
              preds.(j) <- i :: preds.(j))
            (Lang.Cfg.successors b))
    labels;
  let idom =
    Array.init n (fun i ->
        if i = 0 || not (LabelMap.mem labels.(i) ch.blocks) then i else -1)
  in
  (* Walk both fingers up the current tree to their nearest common
     ancestor; a non-root's idom always has a smaller RPO index. *)
  let rec intersect a b =
    if a = b then a
    else if a > b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 1 to n - 1 do
      if idom.(i) <> i then begin
        let nd =
          List.fold_left
            (fun acc p ->
              if idom.(p) < 0 then acc
              else if acc < 0 then p
              else intersect p acc)
            (-1) preds.(i)
        in
        if nd <> idom.(i) then begin
          idom.(i) <- nd;
          changed := true
        end
      end
    done
  done;
  (* Children come after their parent in RPO, so subtree sizes
     accumulate bottom-up and preorder slots are handed out top-down,
     each in one sweep. *)
  let size = Array.make n 1 in
  for i = n - 1 downto 1 do
    if idom.(i) <> i then size.(idom.(i)) <- size.(idom.(i)) + size.(i)
  done;
  let pre = Array.make n 0 in
  let next = Array.make n 0 in
  let roots = ref 0 in
  for i = 0 to n - 1 do
    let d = idom.(i) in
    if d = i then begin
      pre.(i) <- !roots;
      roots := !roots + size.(i)
    end
    else begin
      pre.(i) <- next.(d);
      next.(d) <- next.(d) + size.(i)
    end;
    next.(i) <- pre.(i) + 1
  done;
  { index; labels; idom; pre; size }

let dominates t a b =
  match Hashtbl.find_opt t.index b with
  | None -> true (* unreachable: vacuous *)
  | Some j -> (
      match Hashtbl.find_opt t.index a with
      | None -> false
      | Some i -> t.pre.(i) <= t.pre.(j) && t.pre.(j) < t.pre.(i) + t.size.(i))

let idom t l =
  match Hashtbl.find_opt t.index l with
  | Some i when t.idom.(i) <> i -> Some t.labels.(t.idom.(i))
  | _ -> None
