(* Hft_analysis: post-dominators, static implications and the guided-
   PODEM contract, checked against hand-built circuits and exhaustive
   enumeration (the circuits are small enough to enumerate every
   source assignment, so every soundness claim has a ground truth). *)

open Hft_gate
open Hft_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Shared harness                                                     *)
(* ------------------------------------------------------------------ *)

let sources nl = Netlist.pis nl @ Netlist.dffs nl

(* Every total 0/1 assignment of the sources, with all internal nodes
   evaluated (three-valued sim on concrete inputs is concrete). *)
let enum_states nl f =
  let srcs = sources nl in
  let k = List.length srcs in
  assert (k <= 12);
  let st = Sim.tcreate nl in
  for code = 0 to (1 lsl k) - 1 do
    List.iteri (fun i s -> st.(s) <- (code lsr i) land 1) srcs;
    Sim.teval nl st;
    f st
  done

(* The full-scan view used throughout: every DFF freely assignable,
   its D input observed next to the POs. *)
let scan_view nl =
  let dffs = Netlist.dffs nl in
  ( Netlist.pis nl @ dffs,
    Netlist.pos nl @ List.map (fun d -> (Netlist.fanin nl d).(0)) dffs )

(* Reference reachability on the propagation graph (comb fanout edges,
   Dff consumers excluded, observe nodes adjacent to the sink),
   optionally with one node removed — the ground truth a post-dominator
   must match: removing a proper post-dominator of [v] must disconnect
   [v] from every observe node. *)
let bfs_reaches nl ~observe ?(avoid = -1) v =
  if v = avoid then false
  else begin
    let n = Netlist.n_nodes nl in
    let obs = Array.make n false in
    List.iter (fun o -> obs.(o) <- true) observe;
    let seen = Array.make n false in
    let q = Queue.create () in
    Queue.add v q;
    seen.(v) <- true;
    let found = ref false in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      if obs.(u) then found := true
      else
        List.iter
          (fun w ->
            if
              w <> avoid && (not seen.(w)) && Netlist.kind nl w <> Netlist.Dff
            then begin
              seen.(w) <- true;
              Queue.add w q
            end)
          (Netlist.fanout nl u)
    done;
    !found
  end

(* ------------------------------------------------------------------ *)
(* Dominators: hand-checked shapes                                    *)
(* ------------------------------------------------------------------ *)

let test_dom_fanout_free () =
  (* a -> g1 -> g2 -> y: every downstream node post-dominates. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let g1 = Netlist.add nl Netlist.Buf [| a |] in
  let g2 = Netlist.add nl Netlist.Not [| g1 |] in
  let y = Netlist.add nl Netlist.Po [| g2 |] in
  let t = Dominators.compute nl ~observe:[ y ] in
  check "a reaches" true (Dominators.reaches t a);
  Alcotest.(check (list int)) "chain of a" [ g1; g2; y ] (Dominators.chain t a)

let test_dom_reconvergent () =
  (* Diamond: a forks to g1/g2, reconverges at g3; only g3 and y
     post-dominate the stem. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let g1 = Netlist.add nl Netlist.And [| a; b |] in
  let g2 = Netlist.add nl Netlist.Or [| a; b |] in
  let g3 = Netlist.add nl Netlist.Xor [| g1; g2 |] in
  let y = Netlist.add nl Netlist.Po [| g3 |] in
  let t = Dominators.compute nl ~observe:[ y ] in
  Alcotest.(check (list int)) "chain of a" [ g3; y ] (Dominators.chain t a);
  Alcotest.(check (list int)) "chain of g1" [ g3; y ] (Dominators.chain t g1)

let test_dom_unobservable () =
  (* A gate feeding only a DFF cannot reach the frame's observe set. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let g = Netlist.add nl Netlist.And [| a; b |] in
  let _d = Netlist.add nl Netlist.Dff [| g |] in
  let y = Netlist.add nl Netlist.Po [| a |] in
  let t = Dominators.compute nl ~observe:[ y ] in
  check "g cannot reach" false (Dominators.reaches t g);
  Alcotest.(check (list int)) "empty chain" [] (Dominators.chain t g);
  check "a still reaches" true (Dominators.reaches t a)

(* Brute force on the two Figure 1 bindings: [reaches] must agree with
   BFS, and removing any claimed post-dominator must cut every path. *)
let fig1_netlist which =
  let _, d = Hft_core.Fig1_exp.datapath which in
  (Expand.of_datapath d).Expand.netlist

let test_dom_bruteforce which () =
  let nl = fig1_netlist which in
  let _, observe = scan_view nl in
  let t = Dominators.compute nl ~observe in
  for v = 0 to Netlist.n_nodes nl - 1 do
    let reference = bfs_reaches nl ~observe v in
    if reference <> Dominators.reaches t v then
      Alcotest.failf "node %d: reaches=%b, BFS says %b"
        v (Dominators.reaches t v) reference;
    List.iter
      (fun w ->
        if w <> v && bfs_reaches nl ~observe ~avoid:w v then
          Alcotest.failf "node %d: removing post-dominator %d leaves a path"
            v w)
      (Dominators.chain t v)
  done

(* ------------------------------------------------------------------ *)
(* Implications: soundness against exhaustive simulation              *)
(* ------------------------------------------------------------------ *)

let test_impl_direct () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let g = Netlist.add nl Netlist.And [| a; b |] in
  let _y = Netlist.add nl Netlist.Po [| g |] in
  let imp = Implications.compute nl in
  let has l l' = List.mem l' (Implications.implied imp l) in
  check "a=0 forces g=0" true (has (a, 0) (g, 0));
  check "g=1 forces a=1 (contrapositive)" true (has (g, 1) (a, 1));
  check "g=1 forces b=1" true (has (g, 1) (b, 1))

(* Every stored edge, on every circuit: whenever the source literal
   holds under a total assignment, the target literal holds too. *)
let check_impl_sound nl =
  let imp = Implications.compute nl in
  let n = Netlist.n_nodes nl in
  enum_states nl (fun st ->
      for v = 0 to n - 1 do
        for value = 0 to 1 do
          if st.(v) = value then
            List.iter
              (fun (b, vb) ->
                if st.(b) <> vb then
                  Alcotest.failf
                    "unsound edge (%d,%d) -> (%d,%d): target is %d"
                    v value b vb st.(b))
              (Implications.implied imp (v, value))
        done
      done)

(* Closure: [Contradiction] on a single literal must mean no total
   assignment produces it; [Consistent] literals must all hold. *)
let check_closure_sound nl =
  let imp = Implications.compute nl in
  let n = Netlist.n_nodes nl in
  for v = 0 to n - 1 do
    for value = 0 to 1 do
      match Implications.closure imp [ (v, value) ] with
      | Implications.Contradiction ->
        enum_states nl (fun st ->
            if st.(v) = value then
              Alcotest.failf
                "closure claims (%d,%d) unsatisfiable, assignment found" v
                value)
      | Implications.Consistent lits ->
        enum_states nl (fun st ->
            if st.(v) = value then
              List.iter
                (fun (b, vb) ->
                  if st.(b) <> vb then
                    Alcotest.failf
                      "closure of (%d,%d): implied (%d,%d) violated" v value
                      b vb)
                lits)
    done
  done

let test_impl_sound_random () =
  List.iter
    (fun seed ->
      let nl = Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:12 in
      check_impl_sound nl;
      check_closure_sound nl)
    [ 11; 42; 1999 ]

let test_impl_constant_contradiction () =
  (* g = And(a, 0) can never be 1; the closure must prove it. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let c0 = Netlist.add nl Netlist.Const0 [||] in
  let g = Netlist.add nl Netlist.And [| a; c0 |] in
  let _y = Netlist.add nl Netlist.Po [| g |] in
  let imp = Implications.compute nl in
  check "g=1 contradictory" true
    (Implications.closure imp [ (g, 1) ] = Implications.Contradiction);
  check "g=0 consistent" true
    (match Implications.closure imp [ (g, 0) ] with
     | Implications.Consistent _ -> true
     | Implications.Contradiction -> false)

(* Reference learner: a plain full-cone SOCRATES pass.  Every X-valued
   source literal re-evaluates its whole memoized fanout cone in
   topological order; the first [per_lit_cap] settled nodes become
   edges.  Returns the per-literal successor lists and the edge count,
   which [Implications]' event-driven learner must reproduce exactly. *)
let reference_graph nl =
  (* Copies of Implications' private learning budgets; they must match
     for the graphs to be comparable. *)
  let per_lit_cap = 32 and total_cap = 200_000 and learn_max_nodes = 20_000 in
  let n = Netlist.n_nodes nl in
  let succs = Array.make (2 * n) [] in
  let edges = ref 0 in
  let add_edge l1 l2 =
    succs.(l1) <- l2 :: succs.(l1);
    incr edges
  in
  let pair (a, va) (b, vb) =
    add_edge ((2 * a) + va) ((2 * b) + vb);
    add_edge ((2 * b) + (1 - vb)) ((2 * a) + (1 - va))
  in
  for g = 0 to n - 1 do
    let fi = Netlist.fanin nl g in
    match Netlist.kind nl g with
    | Netlist.And -> Array.iter (fun a -> pair (a, 0) (g, 0)) fi
    | Netlist.Or -> Array.iter (fun a -> pair (a, 1) (g, 1)) fi
    | Netlist.Nand -> Array.iter (fun a -> pair (a, 0) (g, 1)) fi
    | Netlist.Nor -> Array.iter (fun a -> pair (a, 1) (g, 0)) fi
    | Netlist.Buf | Netlist.Po ->
      pair (fi.(0), 0) (g, 0);
      pair (fi.(0), 1) (g, 1)
    | Netlist.Not ->
      pair (fi.(0), 0) (g, 1);
      pair (fi.(0), 1) (g, 0)
    | Netlist.Xor | Netlist.Xnor | Netlist.Mux2 | Netlist.Pi | Netlist.Dff
    | Netlist.Const0 | Netlist.Const1 -> ()
  done;
  let base = Sim.tcreate nl in
  Sim.teval nl base;
  if n <= learn_max_nodes then begin
    let scratch = Array.copy base in
    let eval = Sim.teval_fn nl scratch in
    let v = ref 0 in
    while !v < n && !edges < total_cap do
      let src = !v in
      if base.(src) = 2 then begin
        let cone = Netlist.fanout_cone nl src in
        for b = 0 to 1 do
          let lit = (2 * src) + b in
          scratch.(src) <- b;
          let learned = ref 0 in
          Array.iter
            (fun w ->
              if w <> src then begin
                eval w;
                if
                  scratch.(w) <> 2 && base.(w) = 2
                  && !learned < per_lit_cap && !edges < total_cap
                then begin
                  incr learned;
                  add_edge lit ((2 * w) + scratch.(w));
                  add_edge
                    ((2 * w) + (1 - scratch.(w)))
                    ((2 * src) + (1 - b))
                end
              end)
            cone;
          Array.iter (fun w -> scratch.(w) <- base.(w)) cone
        done
      end;
      incr v
    done
  end;
  (succs, !edges)

let check_same_graph label nl =
  let imp = Implications.compute nl in
  let succs, edges = reference_graph nl in
  check_int (label ^ ": n_edges") edges (Implications.n_edges imp);
  for v = 0 to Netlist.n_nodes nl - 1 do
    for b = 0 to 1 do
      let want =
        List.map (fun l -> (l / 2, l land 1)) succs.((2 * v) + b)
      in
      if Implications.implied imp (v, b) <> want then
        Alcotest.failf "%s: successors of (%d,%d) differ from the reference"
          label v b
    done
  done

let test_impl_reference_random () =
  List.iter
    (fun seed ->
      check_same_graph
        (Printf.sprintf "seed %d" seed)
        (Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:12);
      check_same_graph
        (Printf.sprintf "seed %d, 120 gates" seed)
        (Netlist_gen.sequential ~seed ~n_pi:6 ~n_dff:4 ~n_gates:120))
    [ 11; 42; 1999; 7; 2024 ]

let test_impl_reference_constants () =
  (* Constant-driven cones: baseline-concrete nodes are never learned
     targets, and a literal's wavefront must not leak through them. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let c0 = Netlist.add nl Netlist.Const0 [||] in
  let c1 = Netlist.add nl Netlist.Const1 [||] in
  let k0 = Netlist.add nl Netlist.And [| a; c0 |] in
  let k1 = Netlist.add nl Netlist.Or [| b; c1 |] in
  let g1 = Netlist.add nl Netlist.Nand [| a; k1 |] in
  let g2 = Netlist.add nl Netlist.Xor [| k0; b |] in
  let g3 = Netlist.add nl Netlist.Mux2 [| c1; a; g2 |] in
  let g4 = Netlist.add nl Netlist.Nor [| g1; k0 |] in
  let d = Netlist.add nl Netlist.Dff [| g4 |] in
  let g5 = Netlist.add nl Netlist.And [| d; g3 |] in
  let _y1 = Netlist.add nl Netlist.Po [| g5 |] in
  let _y2 = Netlist.add nl Netlist.Po [| g4 |] in
  check_same_graph "constants" nl

let test_impl_reference_star () =
  (* One PI fans out to 48 buffers, half of them behind an inverter
     chain added first, so node ids and topological positions disagree
     and [a]'s literals settle far more than the per-literal cap: the
     kept edges must be the first ones in topological order. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let deep = ref a in
  for _ = 1 to 24 do
    deep := Netlist.add nl Netlist.Not [| !deep |]
  done;
  for i = 1 to 48 do
    let src = if i mod 2 = 0 then !deep else a in
    let g = Netlist.add nl Netlist.Or [| src; b |] in
    ignore (Netlist.add nl Netlist.Po [| g |])
  done;
  check "star exceeds the cap" true
    (Array.length (Netlist.fanout_cone nl a) > 2 * 32);
  check_same_graph "star" nl

(* ------------------------------------------------------------------ *)
(* Guidance: static untestability and the guided/unguided contract    *)
(* ------------------------------------------------------------------ *)

let test_static_untestable () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let c0 = Netlist.add nl Netlist.Const0 [||] in
  let g = Netlist.add nl Netlist.And [| a; c0 |] in
  let y = Netlist.add nl Netlist.Po [| g |] in
  let f = { Fault.node = g; pin = None; stuck = false } in
  let gd = Guidance.provide nl ~observe:[ y ] ~faults:[ f ] in
  check "proved statically" true gd.Podem.g_static_untestable;
  (* The proof must agree with the full unguided search... *)
  let r, _ =
    Podem.generate nl ~faults:[ f ] ~assignable:[ a ] ~observe:[ y ]
  in
  check "podem agrees" true (r = Podem.Untestable);
  (* ...and with exhaustive simulation: activation needs g=1, never
     attainable. *)
  enum_states nl (fun st ->
      if st.(g) = 1 then Alcotest.fail "activation assignment exists");
  (* Guided run short-circuits with the static proof on record. *)
  let rg, e =
    Podem.generate ~guidance:gd nl ~faults:[ f ] ~assignable:[ a ]
      ~observe:[ y ]
  in
  check "guided untestable" true (rg = Podem.Untestable);
  check "static proof recorded" true e.Podem.static_proof;
  check_int "no decisions spent" 0 e.Podem.decisions

let test_guided_matches_unguided () =
  List.iter
    (fun seed ->
      let nl = Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:14 in
      let assignable, observe = scan_view nl in
      List.iter
        (fun f ->
          let unguided, _ =
            Podem.generate ~backtrack_limit:30 nl ~faults:[ f ] ~assignable
              ~observe
          in
          let guided, _ =
            Podem.generate ~backtrack_limit:30
              ~guidance:(Guidance.provide nl ~observe ~faults:[ f ])
              nl ~faults:[ f ] ~assignable ~observe
          in
          (match (unguided, guided) with
           | Podem.Test _, Podem.Untestable
           | Podem.Untestable, Podem.Test _ ->
             Alcotest.failf "verdict flip on %s" (Fault.to_string nl f)
           | _, Podem.Aborted when unguided <> Podem.Aborted ->
             Alcotest.failf "guided regression on %s" (Fault.to_string nl f)
           | _ -> ());
          match guided with
          | Podem.Test assignment ->
            check "guided test detects" true
              (Podem.check nl ~faults:[ f ] ~assignment ~observe)
          | _ -> ())
        (Fault.collapsed nl))
    [ 7; 77; 777 ]

let test_guidance_cache () =
  Guidance.reset_cache ();
  let nl = Netlist_gen.sequential ~seed:5 ~n_pi:4 ~n_dff:2 ~n_gates:10 in
  let _, observe = scan_view nl in
  let f =
    match Fault.collapsed nl with f :: _ -> f | [] -> assert false
  in
  let g1 = Guidance.provide nl ~observe ~faults:[ f ] in
  let g2 = Guidance.provide nl ~observe ~faults:[ f ] in
  check "cached analyses give identical guidance" true (g1 = g2);
  Guidance.reset_cache ()

(* ------------------------------------------------------------------ *)
(* Lint hooks: the saturated-SCOAP nets behind HFT-L009/L010          *)
(* ------------------------------------------------------------------ *)

let test_lint_saturation_helpers () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let c0 = Netlist.add nl Netlist.Const0 [||] in
  let blocked = Netlist.add nl Netlist.Buf [| a |] in
  let g = Netlist.add nl Netlist.And [| blocked; c0 |] in
  let _y = Netlist.add nl Netlist.Po [| g |] in
  let m = Scoap.analyze nl in
  (* g can never be 1 -> uncontrollable; [blocked]'s only path runs
     through the masked And -> unobservable. *)
  check "g uncontrollable" true
    (List.mem g (Hft_lint.Rules.uncontrollable_nets nl m));
  check "blocked unobservable" true
    (List.mem blocked (Hft_lint.Rules.unobservable_nets nl m));
  (* A clean net trips neither helper. *)
  let nl2 = Netlist.create () in
  let p = Netlist.add nl2 Netlist.Pi [||] in
  let q = Netlist.add nl2 Netlist.Not [| p |] in
  let _y2 = Netlist.add nl2 Netlist.Po [| q |] in
  let m2 = Scoap.analyze nl2 in
  check_int "no uncontrollable" 0
    (List.length (Hft_lint.Rules.uncontrollable_nets nl2 m2));
  check_int "no unobservable" 0
    (List.length (Hft_lint.Rules.unobservable_nets nl2 m2))

let () =
  Alcotest.run "hft_analysis"
    [
      ( "dominators",
        [
          Alcotest.test_case "fanout-free chain" `Quick test_dom_fanout_free;
          Alcotest.test_case "reconvergent diamond" `Quick
            test_dom_reconvergent;
          Alcotest.test_case "unobservable gate" `Quick test_dom_unobservable;
          Alcotest.test_case "fig1b brute force" `Quick
            (test_dom_bruteforce Hft_core.Fig1_exp.B);
          Alcotest.test_case "fig1c brute force" `Quick
            (test_dom_bruteforce Hft_core.Fig1_exp.C);
        ] );
      ( "implications",
        [
          Alcotest.test_case "direct gate edges" `Quick test_impl_direct;
          Alcotest.test_case "sound vs exhaustive" `Quick
            test_impl_sound_random;
          Alcotest.test_case "constant contradiction" `Quick
            test_impl_constant_contradiction;
          Alcotest.test_case "matches full-cone reference" `Quick
            test_impl_reference_random;
          Alcotest.test_case "reference: constant cones" `Quick
            test_impl_reference_constants;
          Alcotest.test_case "reference: capped star" `Quick
            test_impl_reference_star;
        ] );
      ( "guidance",
        [
          Alcotest.test_case "static untestable" `Quick test_static_untestable;
          Alcotest.test_case "guided matches unguided" `Quick
            test_guided_matches_unguided;
          Alcotest.test_case "analysis cache" `Quick test_guidance_cache;
        ] );
      ( "lint_saturation",
        [
          Alcotest.test_case "L009/L010 helpers" `Quick
            test_lint_saturation_helpers;
        ] );
    ]
