(* Seeded inputs.  Every workload's inputs are a pure function of the
   seed argument; the program under test only ever sees the generated
   inputs (program text, litmus names, wire requests). *)

open Lang.Ast

let rng seed tag = Random.State.make [| 0x70b3; seed; tag |]
let text p = Lang.Pp.program_to_string p

(* A seed for the [i]-th generated item of a workload, distinct across
   workloads ([tag]) and runs ([seed]). *)
let sub_seed ~seed ~tag i = Hashtbl.hash (seed, tag, i)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- explore_deep families ------------------------------------------ *)

(* Certification-bound LB shape: a promiser whose fulfilment sits [pad]
   register steps after the promise, against a reader whose [noise]
   relaxed loads of an unwritten location revisit the promiser's exact
   configuration.  The promiser writes [vx] to x, the reader [vy] to y.
   Completed outcomes, as sorted multisets of the two prints: {0,0},
   {0,vx}, {0,vy} and, through the promise, {vx,vy}. *)
let cert_heavy ?(vx = 1) ?(vy = 1) ~pad ~noise () =
  let h1 = pad / 2 in
  let h2 = pad - h1 in
  let open Lang.Build in
  let padding n = List.init n (fun _ -> assign "a" (r "a" + i 1)) in
  program ~atomics:[ "x"; "y"; "z" ]
    [
      proc "t1"
        [
          blk "L0"
            ([ assign "a" (i 0) ]
            @ padding h1
            @ [ load "r1" "y" ~mode:Lang.Modes.Rlx ]
            @ padding h2
            @ [ store "x" ~mode:Lang.Modes.WRlx (i vx); print (r "r1") ])
            ret;
        ];
      proc "t2"
        [
          blk "L0"
            (List.init noise (fun _ -> load "s" "z" ~mode:Lang.Modes.Rlx)
            @ [
                load "r2" "x" ~mode:Lang.Modes.Rlx;
                store "y" ~mode:Lang.Modes.WRlx (i vy);
                print (r "r2");
              ])
            ret;
        ];
    ]
    ~threads:[ "t1"; "t2" ]

let cert_heavy_outcomes ?(vx = 1) ?(vy = 1) () =
  List.sort_uniq compare (List.map (List.sort compare) [ [ 0; 0 ]; [ 0; vx ]; [ 0; vy ]; [ vx; vy ] ])

(* A pure orbit: one reader of [x] against [n] identical writers of
   [v].  Coherence forbids reading [v] then the initial 0, so the
   reader prints exactly [0;0], [0;v] or [v;v]. *)
let sym_writers ~n ~v =
  let open Lang.Build in
  program ~atomics:[ "x" ]
    [
      proc "reader"
        [
          blk "L0"
            [
              load "r1" "x" ~mode:Lang.Modes.Rlx;
              load "r2" "x" ~mode:Lang.Modes.Rlx;
              print (r "r1");
              print (r "r2");
            ]
            ret;
        ];
      proc "w" [ blk "L0" [ store "x" ~mode:Lang.Modes.WRlx (i v) ] ret ];
    ]
    ~threads:("reader" :: List.init n (fun _ -> "w"))

let sym_writers_outcomes v = [ [ 0; 0 ]; [ 0; v ]; [ v; v ] ]

(* ---- opt_large: single-thread CFGs with nested loops ---------------- *)

(* A terminating single-thread program of exactly [blocks] basic blocks
   (plus the final print block).  Loops run two iterations on a
   depth-indexed counter register the random code never writes, and
   nest at most three deep, so every block executes at most eight
   times.  The straight-line code mixes the shapes the passes act on:
   constants, copies, repeated expressions, dead assignments and
   loop-invariant non-atomic loads. *)
let cfg ~seed ~blocks =
  let st = rng seed 11 in
  let vars = [| "a"; "b"; "c"; "d" |] in
  let reg () = Printf.sprintf "r%d" (Random.State.int st 6) in
  let var () = vars.(Random.State.int st (Array.length vars)) in
  let expr () =
    match Random.State.int st 4 with
    | 0 -> Val (Random.State.int st 8)
    | 1 -> Reg (reg ())
    | 2 -> Bin (Add, Reg (reg ()), Val (Random.State.int st 4))
    | _ -> Bin (Mul, Reg (reg ()), Reg (reg ()))
  in
  let instr () =
    match Random.State.int st 12 with
    | 0 | 1 | 2 -> Load (reg (), var (), Lang.Modes.Na)
    | 3 | 4 -> Store (var (), expr (), Lang.Modes.WNa)
    | 5 | 6 -> Assign (reg (), expr ())
    | 7 -> Assign (reg (), Reg (reg ()))
    | 8 -> Assign (reg (), Val (Random.State.int st 8))
    | 9 -> Print (Reg (reg ()))
    | _ -> Skip
  in
  let straight () = List.init (1 + Random.State.int st 4) (fun _ -> instr ()) in
  let out = ref [] in
  let n = ref 0 in
  let fresh () =
    incr n;
    Printf.sprintf "B%d" !n
  in
  let emit l instrs term = out := (l, block instrs term) :: !out in
  let rec chain ~entry ~exit n =
    if n <= 1 then emit entry (straight ()) (Jmp exit)
    else begin
      let next = fresh () in
      emit entry (straight ()) (Jmp next);
      chain ~entry:next ~exit (n - 1)
    end
  in
  (* Exactly [max 1 budget] blocks entered at [entry], left by a jump to
     [exit]: a straight chain over half the budget, then a loop around
     the rest, nested up to three deep.  The shape is fixed by the
     budget; only the straight-line code is random. *)
  let rec region ~depth ~entry ~exit budget =
    if budget < 4 || depth >= 3 then chain ~entry ~exit budget
    else begin
      let pre = (budget - 3) / 2 in
      let start = if pre > 0 then fresh () else entry in
      if pre > 0 then chain ~entry ~exit:start pre;
      let ctr = Printf.sprintf "i%d" depth in
      let head = fresh () and body = fresh () and latch = fresh () in
      emit start (straight () @ [ Assign (ctr, Val 0) ]) (Jmp head);
      emit head [] (Be (Bin (Lt, Reg ctr, Val 2), body, exit));
      emit latch
        (straight () @ [ Assign (ctr, Bin (Add, Reg ctr, Val 1)) ])
        (Jmp head);
      region ~depth:(depth + 1) ~entry:body ~exit:latch (budget - 3 - pre)
    end
  in
  (* Top-level chunks of a fixed count: the pass costs grow with the
     chunk (and so the program) size. *)
  let chunks = 16 in
  let rec top k entry =
    let b = (blocks * (k + 1) / chunks) - (blocks * k / chunks) in
    if k = chunks - 1 then region ~depth:0 ~entry ~exit:"END" b
    else begin
      let next = fresh () in
      region ~depth:0 ~entry ~exit:next b;
      top (k + 1) next
    end
  in
  top 0 "B0";
  let final = List.init 6 (fun k -> Print (Reg (Printf.sprintf "r%d" k))) in
  emit "END" final Return;
  (* Registers start undefined until written; define them up front. *)
  let init = List.init 6 (fun k -> Assign (Printf.sprintf "r%d" k, Val k)) in
  let blocks_l =
    List.rev_map
      (fun (l, b) -> if l = "B0" then (l, { b with instrs = init @ b.instrs }) else (l, b))
      !out
  in
  program ~code:[ ("main", codeheap ~entry:"B0" blocks_l) ] [ "main" ]

let count_instrs (p : program) =
  FnameMap.fold
    (fun _ ch acc ->
      LabelMap.fold (fun _ b acc -> acc + List.length b.instrs + 1) ch.blocks acc)
    p.code 0

(* ---- input digest ---------------------------------------------------- *)

let digest parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* ---- stratified stress programs -------------------------------------- *)

(* Seeded [Explore.Stress] programs chosen to fill fixed strata of
   reachable-state count (verification cost follows it closely), plus
   a fixed number of ww-racy programs, which the pipeline rejects at
   its first stage.  Within a stratum [(lo, hi, k)] the [k] programs
   are the race-free candidates nearest to [k] state counts spread
   evenly over [lo, hi), so the seed changes every program but hardly
   the cost mix, and runs with different seeds measure comparable
   work.  Exactly [candidates] programs are examined whatever the
   seed, so the set-up cost does not depend on how soon the strata
   fill; a node budget just above the top stratum skips large
   candidates cheaply.  Returns [(stratum, program)] pairs, stratum
   [-1] for the racy ones. *)
let stress_strata ~seed ~tag ~candidates strata ~racy =
  let top = List.fold_left (fun m (_, hi, _) -> max m hi) 0 strata in
  let config =
    { (Explore.Config.with_domains 1 Explore.Config.default) with
      Explore.Config.max_nodes = Some top }
  in
  let racy_left = ref racy and picked_racy = ref [] and complete = ref [] in
  for i = 0 to candidates - 1 do
    let p = Explore.Stress.generate ~seed:(sub_seed ~seed ~tag i) in
    match
      Explore.Enum.iter_reachable ~config Explore.Enum.Interleaving p
        ~f:(fun ~committed:_ _ -> ())
    with
    | Error _ -> ()
    | Ok st ->
        (* A race found within the budget is real; freedom needs the
           complete walk. *)
        let racy_pick =
          !racy_left > 0
          && match Race.ww_rf ~config p with Ok (Race.Racy _) -> true | _ -> false
        in
        if racy_pick then begin
          decr racy_left;
          picked_racy := (-1, p) :: !picked_racy
        end
        else if Atomic.get st.node_budget_hits = 0 then
          complete := (Atomic.get st.nodes, i, p) :: !complete
  done;
  if !racy_left > 0 then failwith "stress_strata: too few racy candidates";
  let used = Hashtbl.create 64 in
  let race_free p = match Race.ww_rf ~config p with Ok Race.Free -> true | _ -> false in
  let fill k (lo, hi, n) =
    List.init n (fun j ->
        let target = float_of_int lo +. ((float_of_int j +. 0.5) *. float_of_int (hi - lo) /. float_of_int n) in
        let nearest =
          List.filter (fun (states, i, _) -> states >= lo && states < hi && not (Hashtbl.mem used i)) !complete
          |> List.map (fun ((states, i, _) as c) -> (Float.abs (float_of_int states -. target), i, c))
          |> List.sort compare
        in
        (* A racy candidate is set aside for the later targets too. *)
        let free (_, i, (_, _, p)) = race_free p || (Hashtbl.add used i (); false) in
        match List.find_opt free nearest with
        | Some (_, i, (_, _, p)) ->
            Hashtbl.add used i ();
            (k, p)
        | None -> failwith "stress_strata: too few candidates to fill the strata")
  in
  List.rev !picked_racy @ List.concat (List.mapi fill strata)
