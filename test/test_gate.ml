open Hft_cdfg
open Hft_gate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Netlist basics                                                     *)
(* ------------------------------------------------------------------ *)

let mini_netlist () =
  (* y = (a & b) ^ c, with a DFF delaying c. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Pi [||] in
  let b = Netlist.add nl ~name:"b" Netlist.Pi [||] in
  let c = Netlist.add nl ~name:"c" Netlist.Pi [||] in
  let d = Netlist.add nl ~name:"d" Netlist.Dff [| c |] in
  let g1 = Netlist.add nl Netlist.And [| a; b |] in
  let g2 = Netlist.add nl Netlist.Xor [| g1; d |] in
  let y = Netlist.add nl ~name:"y" Netlist.Po [| g2 |] in
  (nl, a, b, c, d, g2, y)

let test_netlist_structure () =
  let nl, _, _, _, _, _, _ = mini_netlist () in
  check_int "nodes" 7 (Netlist.n_nodes nl);
  check_int "pis" 3 (List.length (Netlist.pis nl));
  check_int "pos" 1 (List.length (Netlist.pos nl));
  check_int "dffs" 1 (List.length (Netlist.dffs nl));
  Netlist.validate nl

let test_netlist_arity_checked () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  check "arity mismatch rejected" true
    (match Netlist.add nl Netlist.And [| a |] with
     | _ -> false
     | exception Hft_robust.Validation.Invalid { site = "netlist.add"; _ } ->
       true)

let test_comb_cycle_detected () =
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let g1 = Netlist.add nl Netlist.And [| a; a |] in
  (* Close a combinational loop by patching the fanin in place. *)
  Netlist.set_fanin nl g1 1 g1;
  check "cycle detected" true
    (match Netlist.comb_order nl with
     | _ -> false
     | exception Hft_robust.Validation.Invalid { site = "netlist.comb_order"; _ }
       -> true)

let test_sequential_sim () =
  let nl, _, _, _, _, _, _ = mini_netlist () in
  (* Cycle 0: a=1,b=1,c=1 -> dff holds 0, y = 1^0 = 1; clock loads c=1.
     Cycle 1: a=1,b=0,c=0 -> y = 0^1 = 1. *)
  let out =
    Sim.run_cycles nl ~stimuli:[| [| true; true; true |]; [| true; false; false |] |]
  in
  check "cycle0" true out.(0).(0);
  check "cycle1" true out.(1).(0)

(* ------------------------------------------------------------------ *)
(* Arithmetic expansion vs reference semantics                        *)
(* ------------------------------------------------------------------ *)

let kinds_under_test =
  [ Op.Add; Op.Sub; Op.Mul; Op.Lt; Op.Gt; Op.Eq; Op.And; Op.Or; Op.Xor ]

let test_blocks_match_reference () =
  let width = 6 in
  let rng = Hft_util.Rng.create 99 in
  List.iter
    (fun k ->
      let blk = Expand.comb_block ~width [ k ] in
      for _ = 1 to 100 do
        let a = Hft_util.Rng.int rng (1 lsl width) in
        let b = Hft_util.Rng.int rng (1 lsl width) in
        let got = Expand.eval_block blk ~kind_index:0 ~a ~b in
        let want = Op.eval ~width k [ a; b ] in
        if got <> want then
          Alcotest.failf "%s(%d,%d): gates=%d reference=%d" (Op.to_string k) a
            b got want
      done)
    kinds_under_test

let test_multi_kind_block () =
  let width = 5 in
  let blk = Expand.comb_block ~width [ Op.Add; Op.Sub ] in
  check_int "two select lines" 2 (List.length blk.Expand.b_sel);
  let rng = Hft_util.Rng.create 3 in
  for _ = 1 to 50 do
    let a = Hft_util.Rng.int rng 32 and b = Hft_util.Rng.int rng 32 in
    check_int "add path" (Op.eval ~width Op.Add [ a; b ])
      (Expand.eval_block blk ~kind_index:0 ~a ~b);
    check_int "sub path" (Op.eval ~width Op.Sub [ a; b ])
      (Expand.eval_block blk ~kind_index:1 ~a ~b)
  done

let prop_adder_width_sweep =
  QCheck.Test.make ~name:"adder matches reference across widths" ~count:60
    QCheck.(pair (int_range 2 10) (int_bound 100000))
    (fun (width, seed) ->
      let rng = Hft_util.Rng.create seed in
      let blk = Expand.comb_block ~width [ Op.Add ] in
      let a = Hft_util.Rng.int rng (1 lsl width) in
      let b = Hft_util.Rng.int rng (1 lsl width) in
      Expand.eval_block blk ~kind_index:0 ~a ~b = Op.eval ~width Op.Add [ a; b ])

(* ------------------------------------------------------------------ *)
(* Datapath expansion vs RTL simulation                               *)
(* ------------------------------------------------------------------ *)

let test_expanded_datapath_matches_rtl () =
  let width = 6 in
  let rng = Hft_util.Rng.create 31 in
  List.iter
    (fun bench ->
      let g = Bench_suite.by_name bench in
      let d =
        Hft_hls.Datapath_gen.conventional ~width
          ~resources:
            [ (Op.Multiplier, 2); (Op.Alu, 2); (Op.Comparator, 1);
              (Op.Logic_unit, 1) ]
          g
      in
      let ex = Expand.of_datapath d in
      for _ = 1 to 5 do
        let inputs =
          List.map
            (fun v -> (v.Graph.v_name, Hft_util.Rng.int rng (1 lsl width)))
            (Graph.inputs g)
        in
        let rtl_outs, _ = Hft_rtl.Datapath.simulate d ~inputs () in
        let gate_outs = Expand.run_iteration d ex ~inputs () in
        List.iter
          (fun (name, v) ->
            let got = List.assoc name gate_outs in
            if got <> v then
              Alcotest.failf "%s: output %s gate=%d rtl=%d" bench name got v)
          rtl_outs
      done)
    [ "tseng"; "diffeq"; "fir8" ]

let test_expanded_with_state () =
  let width = 5 in
  let g = Bench_suite.iir4 () in
  let d =
    Hft_hls.Datapath_gen.conventional ~width
      ~resources:[ (Op.Multiplier, 2); (Op.Alu, 2) ]
      g
  in
  let ex = Expand.of_datapath d in
  let rng = Hft_util.Rng.create 8 in
  for _ = 1 to 3 do
    let inputs =
      List.map
        (fun v -> (v.Graph.v_name, Hft_util.Rng.int rng (1 lsl width)))
        (Graph.inputs g)
    in
    (* Random initial state on every register, keyed by register name. *)
    let state =
      Array.to_list d.Hft_rtl.Datapath.regs
      |> List.map (fun r ->
             (r.Hft_rtl.Datapath.r_name, Hft_util.Rng.int rng (1 lsl width)))
    in
    let rtl_outs, _ = Hft_rtl.Datapath.simulate d ~inputs ~state () in
    let gate_outs = Expand.run_iteration d ex ~inputs ~state () in
    List.iter
      (fun (name, v) ->
        if List.assoc name gate_outs <> v then
          Alcotest.failf "iir4 with state: output %s gate=%d rtl=%d" name
            (List.assoc name gate_outs) v)
      rtl_outs
  done

(* ------------------------------------------------------------------ *)
(* Fault universe & fault simulation                                  *)
(* ------------------------------------------------------------------ *)

let test_fault_universe () =
  let nl, _, _, _, _, _, _ = mini_netlist () in
  let u = Fault.universe nl in
  check "has stem faults" true
    (List.exists (fun f -> f.Fault.pin = None) u);
  let c = Fault.collapsed nl in
  check "collapse shrinks or keeps" true (List.length c <= List.length u)

let test_fsim_detects_obvious () =
  (* y = a & b; fault y/SA0 detected by a=b=1. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let g = Netlist.add nl Netlist.And [| a; b |] in
  let _y = Netlist.add nl Netlist.Po [| g |] in
  let fault = { Fault.node = g; pin = None; stuck = false } in
  let r = Fsim.comb nl ~patterns:[| [| true; true |] |] [ fault ] in
  check_int "detected" 1 (List.length r.Fsim.detected);
  let r2 = Fsim.comb nl ~patterns:[| [| true; false |] |] [ fault ] in
  check_int "not detected by 10" 0 (List.length r2.Fsim.detected)

let test_fsim_random_coverage_high_on_adder () =
  let blk = Expand.comb_block ~width:4 [ Op.Add ] in
  let nl = blk.Expand.b_netlist in
  let faults = Fault.collapsed nl in
  let rng = Hft_util.Rng.create 17 in
  let r = Fsim.comb_random nl ~rng ~n_patterns:256 faults in
  check "adder random coverage > 95%" true (Fsim.coverage r > 0.95)

let test_coverage_curve_monotone () =
  let blk = Expand.comb_block ~width:4 [ Op.Mul ] in
  let nl = blk.Expand.b_netlist in
  let faults = Fault.collapsed nl in
  let rng = Hft_util.Rng.create 5 in
  let n_pi = List.length (Netlist.pis nl) in
  let curve =
    Fsim.coverage_curve nl ~checkpoints:[ 8; 32; 128 ]
      ~next_pattern:(fun () -> Array.init n_pi (fun _ -> Hft_util.Rng.bool rng))
      faults
  in
  let rec mono = function
    | (_, a) :: ((_, b) :: _ as tl) -> a <= b +. 1e-9 && mono tl
    | _ -> true
  in
  check "monotone" true (mono curve);
  check "final decent" true (snd (List.nth curve 2) > 0.8)

(* ------------------------------------------------------------------ *)
(* PODEM                                                              *)
(* ------------------------------------------------------------------ *)

let test_podem_simple () =
  (* y = a & b, fault g/SA0: test must set a=b=1. *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let g = Netlist.add nl Netlist.And [| a; b |] in
  let _y = Netlist.add nl Netlist.Po [| g |] in
  let fault = { Fault.node = g; pin = None; stuck = false } in
  (match Podem.generate_comb nl ~fault with
   | Podem.Test assign, _ ->
     check "a=1" true (List.assoc a assign);
     check "b=1" true (List.assoc b assign)
   | Podem.Untestable, _ -> Alcotest.fail "unexpected untestable"
   | Podem.Aborted, _ -> Alcotest.fail "unexpected abort")

let test_podem_untestable_redundant () =
  (* y = a | (a & b): the (a&b)/SA0 fault is undetectable (redundant). *)
  let nl = Netlist.create () in
  let a = Netlist.add nl Netlist.Pi [||] in
  let b = Netlist.add nl Netlist.Pi [||] in
  let g1 = Netlist.add nl Netlist.And [| a; b |] in
  let g2 = Netlist.add nl Netlist.Or [| a; g1 |] in
  let _y = Netlist.add nl Netlist.Po [| g2 |] in
  (match Podem.generate_comb nl ~fault:{ Fault.node = g1; pin = None; stuck = false } with
   | Podem.Untestable, _ -> ()
   | Podem.Test _, _ -> Alcotest.fail "redundant fault should be untestable"
   | Podem.Aborted, _ -> Alcotest.fail "should terminate")

let test_podem_tests_verified_by_fsim () =
  (* Every PODEM test on the multiplier block must be confirmed by
     fault simulation. *)
  let blk = Expand.comb_block ~width:3 [ Op.Mul ] in
  let nl = blk.Expand.b_netlist in
  let faults = Fault.collapsed nl in
  let pis = Netlist.pis nl in
  let checked = ref 0 in
  List.iteri
    (fun i fault ->
      if i mod 4 = 0 then begin
        match Podem.generate_comb nl ~fault with
        | Podem.Test assign, _ ->
          incr checked;
          check "podem test detects its fault" true
            (Podem.check nl ~faults:[ fault ] ~assignment:assign
               ~observe:(Netlist.pos nl));
          (* Cross-validate with the pattern-parallel fault simulator. *)
          let pattern =
            Array.of_list
              (List.map
                 (fun pi ->
                   match List.assoc_opt pi assign with
                   | Some b -> b
                   | None -> false)
                 pis)
          in
          let r = Fsim.comb nl ~patterns:[| pattern |] [ fault ] in
          check "fsim agrees" true (List.length r.Fsim.detected = 1)
        | Podem.Untestable, _ | Podem.Aborted, _ -> ()
      end)
    faults;
  check "some faults exercised" true (!checked > 10)

let test_podem_full_coverage_small_adder () =
  let blk = Expand.comb_block ~width:3 [ Op.Add ] in
  let nl = blk.Expand.b_netlist in
  let faults = Fault.collapsed nl in
  let aborted = ref 0 and detected = ref 0 and untestable = ref 0 in
  List.iter
    (fun fault ->
      match Podem.generate_comb ~backtrack_limit:1000 nl ~fault with
      | Podem.Test _, _ -> incr detected
      | Podem.Untestable, _ -> incr untestable
      | Podem.Aborted, _ -> incr aborted)
    faults;
  check_int "no aborts on 3-bit adder" 0 !aborted;
  (* A ripple-carry adder is fully testable. *)
  check "everything detected" true
    (float_of_int !detected /. float_of_int (List.length faults) > 0.99)

(* ------------------------------------------------------------------ *)
(* Sequential ATPG                                                    *)
(* ------------------------------------------------------------------ *)

(* A 2-FF shift register: PI -> FF1 -> FF2 -> PO.  Depth 2, no loops:
   sequential ATPG needs up to 3 frames. *)
let shift_register () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Pi [||] in
  let inv = Netlist.add nl Netlist.Not [| a |] in
  let f1 = Netlist.add nl ~name:"f1" Netlist.Dff [| inv |] in
  let buf = Netlist.add nl Netlist.Buf [| f1 |] in
  let f2 = Netlist.add nl ~name:"f2" Netlist.Dff [| buf |] in
  let _y = Netlist.add nl ~name:"y" Netlist.Po [| f2 |] in
  nl

(* A counter-like looped FF: FF xor PI feeds FF back. *)
let looped_ff () =
  let nl = Netlist.create () in
  let a = Netlist.add nl ~name:"a" Netlist.Pi [||] in
  let f = Netlist.add nl ~name:"f" Netlist.Dff [| a |] in
  let x = Netlist.add nl Netlist.Xor [| a; f |] in
  Netlist.set_fanin nl f 0 x;
  let _y = Netlist.add nl ~name:"y" Netlist.Po [| x |] in
  nl

let test_unroll_structure () =
  let nl = shift_register () in
  let u, assignable, observe, _ = Seq_atpg.unroll nl ~frames:3 ~scanned:[] in
  Netlist.validate u;
  (* 3 copies of the PI are assignable; FF initial states are not. *)
  check_int "three assignable PIs" 3 (List.length assignable);
  check_int "three PO copies observable" 3 (List.length observe)

let test_seq_atpg_shift_register () =
  let nl = shift_register () in
  let faults =
    [ { Fault.node = List.nth (Netlist.dffs nl) 0; pin = None; stuck = false };
      { Fault.node = List.nth (Netlist.dffs nl) 1; pin = None; stuck = true } ]
  in
  let stats = Seq_atpg.run ~max_frames:4 nl ~faults ~scanned:[] in
  check_int "both detected" 2 stats.Seq_atpg.detected

let test_seq_atpg_scan_helps_loop () =
  let nl = looped_ff () in
  let f = List.hd (Netlist.dffs nl) in
  let faults = [ { Fault.node = f; pin = None; stuck = false } ] in
  let no_scan = Seq_atpg.run ~max_frames:3 nl ~faults ~scanned:[] in
  let with_scan = Seq_atpg.run ~max_frames:3 nl ~faults ~scanned:[ f ] in
  check "scan detects" true (with_scan.Seq_atpg.detected = 1);
  (* With scan, effort is no worse. *)
  check "scan effort <= no-scan effort" true
    (with_scan.Seq_atpg.implications <= no_scan.Seq_atpg.implications
     || with_scan.Seq_atpg.detected > no_scan.Seq_atpg.detected)

(* ------------------------------------------------------------------ *)
(* Gate-level S-graph                                                 *)
(* ------------------------------------------------------------------ *)

let test_gsgraph_shift_register () =
  let nl = shift_register () in
  let s = Gsgraph.of_netlist nl in
  check_int "no loops" 0 (Gsgraph.n_loops s);
  check_int "depth 1 edge" 1 (Gsgraph.sequential_depth s);
  check_int "no scan needed" 0 (List.length (Gsgraph.scan_selection s))

let test_gsgraph_loop () =
  let nl = looped_ff () in
  let s = Gsgraph.of_netlist nl in
  check "self loop found" true (Gsgraph.n_loops s >= 1);
  (* Self-loops tolerated by default. *)
  check_int "tolerated" 0 (List.length (Gsgraph.scan_selection s));
  check_int "strict selection cuts it" 1
    (List.length (Gsgraph.scan_selection ~ignore_self_loops:false s))

let test_gsgraph_expanded_diffeq_has_loops () =
  let g = Bench_suite.diffeq () in
  let d =
    Hft_hls.Datapath_gen.conventional ~width:4
      ~resources:
        [ (Op.Multiplier, 2); (Op.Alu, 1); (Op.Comparator, 1) ]
      g
  in
  let ex = Expand.of_datapath d in
  let s = Gsgraph.of_netlist ex.Expand.netlist in
  check "diffeq gates have FF loops" true (Gsgraph.n_loops ~max_len:6 s > 0)

(* ------------------------------------------------------------------ *)
(* Controller composition                                             *)
(* ------------------------------------------------------------------ *)

(* Run the composite (FSM + datapath) through reset + one iteration and
   read the output registers. *)
let run_composite (d : Hft_rtl.Datapath.t) (t : Ctrl_expand.t) ~inputs =
  let nl = t.Ctrl_expand.netlist in
  let st = Sim.pcreate nl ~n_patterns:1 in
  let set node b =
    let v = Hft_util.Bitvec.create 1 in
    Hft_util.Bitvec.set v 0 b;
    Sim.pset_pi st node v
  in
  (* Data inputs constant. *)
  List.iter
    (fun (name, value) ->
      match List.assoc_opt name t.Ctrl_expand.expansion.Expand.data_pis with
      | None -> ()
      | Some bits ->
        Array.iteri (fun i node -> set node (value lsr i land 1 = 1)) bits)
    inputs;
  set t.Ctrl_expand.test_mode false;
  List.iter (fun p -> set p false) t.Ctrl_expand.test_sel;
  (* Reset pulse, then walk the states. *)
  set t.Ctrl_expand.reset true;
  Sim.peval nl st;
  Sim.pclock nl st;
  set t.Ctrl_expand.reset false;
  for _ = 0 to d.Hft_rtl.Datapath.n_steps do
    Sim.peval nl st;
    Sim.pclock nl st
  done;
  Sim.peval nl st;
  List.map
    (fun (name, po_bits) ->
      let v =
        Array.to_list po_bits
        |> List.mapi (fun i po ->
               if Hft_util.Bitvec.get (Sim.pvalue st po) 0 then 1 lsl i else 0)
        |> List.fold_left ( + ) 0
      in
      (name, v))
    t.Ctrl_expand.expansion.Expand.outputs

let test_composite_matches_rtl () =
  let width = 5 in
  let rng = Hft_util.Rng.create 3 in
  List.iter
    (fun bench ->
      let g = Bench_suite.by_name bench in
      let d =
        Hft_hls.Datapath_gen.conventional ~width
          ~resources:
            [ (Op.Multiplier, 2); (Op.Alu, 2); (Op.Comparator, 1);
              (Op.Logic_unit, 1) ]
          g
      in
      let c = Hft_rtl.Controller.of_datapath d in
      let t = Ctrl_expand.compose d c in
      for _ = 1 to 4 do
        let inputs =
          List.map
            (fun v -> (v.Graph.v_name, Hft_util.Rng.int rng (1 lsl width)))
            (Graph.inputs g)
        in
        let rtl_outs, _ = Hft_rtl.Datapath.simulate d ~inputs () in
        let got = run_composite d t ~inputs in
        List.iter
          (fun (name, v) ->
            if List.assoc name got <> v then
              Alcotest.failf "%s composite: %s fsm=%d rtl=%d" bench name
                (List.assoc name got) v)
          rtl_outs
      done)
    [ "tseng"; "diffeq" ]

let test_composite_atpg_test_vectors_help () =
  let g = Bench_suite.tseng () in
  let d =
    Hft_hls.Datapath_gen.conventional ~width:4
      ~resources:
        [ (Op.Multiplier, 1); (Op.Alu, 1); (Op.Comparator, 1);
          (Op.Logic_unit, 1) ]
      g
  in
  let c0 = Hft_rtl.Controller.of_datapath d in
  let plain = Ctrl_expand.compose d c0 in
  let rng = Hft_util.Rng.create 15 in
  let faults =
    Fault.collapsed plain.Ctrl_expand.netlist
    |> List.filter (fun f ->
           (* Only data-path faults (nodes existing in the plain
              expansion too would differ; just sample broadly). *)
           ignore f;
           Hft_util.Rng.int rng 30 = 0)
  in
  let s_plain =
    Ctrl_expand.atpg ~backtrack_limit:30 ~max_frames:3 plain ~faults
  in
  (* Same faults on the hardened controller (fault node ids are
     identical as long as compose is deterministic and the controller
     only differs in test vectors, which are appended last).  Rebuild
     with harden's controller. *)
  let rep =
    let c = Hft_rtl.Controller.of_datapath d in
    Hft_rtl.Controller.add_test_vectors c
      [ List.map (fun s -> (s, 1)) c.Hft_rtl.Controller.signals ]
  in
  let hardened = Ctrl_expand.compose d rep in
  (* Node ids differ between the two compositions (extra test logic),
     so just compare aggregate coverage on each netlist's own sampled
     faults. *)
  let rng2 = Hft_util.Rng.create 15 in
  let faults_h =
    Fault.collapsed hardened.Ctrl_expand.netlist
    |> List.filter (fun _ -> Hft_util.Rng.int rng2 30 = 0)
  in
  let s_hard =
    Ctrl_expand.atpg ~backtrack_limit:30 ~max_frames:3 hardened ~faults:faults_h
  in
  (* Shapes: both runs complete; the hardened composite should not be
     dramatically worse (test logic adds faults but also freedom). *)
  check "plain composite runs" true (s_plain.Seq_atpg.total > 0);
  check "hardened composite runs" true (s_hard.Seq_atpg.total > 0)

(* ------------------------------------------------------------------ *)
(* PODEM vs exhaustive simulation on random circuits                  *)
(* ------------------------------------------------------------------ *)

(* Random combinational netlist: n_pi inputs, n_gates random gates over
   earlier nodes, the last few nodes observed. *)
let random_comb_netlist rng ~n_pi ~n_gates =
  let nl = Netlist.create ~name:"random" () in
  let nodes = ref [] in
  for i = 0 to n_pi - 1 do
    nodes := Netlist.add nl ~name:(Printf.sprintf "i%d" i) Netlist.Pi [||] :: !nodes
  done;
  let kinds =
    [| Netlist.And; Netlist.Or; Netlist.Nand; Netlist.Nor; Netlist.Xor;
       Netlist.Xnor; Netlist.Not; Netlist.Mux2 |]
  in
  let pick () =
    let arr = Array.of_list !nodes in
    arr.(Hft_util.Rng.int rng (Array.length arr))
  in
  let last = ref (List.hd !nodes) in
  for _ = 1 to n_gates do
    let k = kinds.(Hft_util.Rng.int rng (Array.length kinds)) in
    let fanins =
      match k with
      | Netlist.Not -> [| pick () |]
      | Netlist.Mux2 -> [| pick (); pick (); pick () |]
      | _ -> [| pick (); pick () |]
    in
    let id = Netlist.add nl k fanins in
    nodes := id :: !nodes;
    last := id
  done;
  let _ = Netlist.add nl ~name:"y" Netlist.Po [| !last |] in
  nl

let prop_podem_agrees_with_exhaustive =
  QCheck.Test.make ~name:"PODEM verdicts agree with exhaustive simulation"
    ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let n_pi = 3 + Hft_util.Rng.int rng 4 in
      let nl = random_comb_netlist rng ~n_pi ~n_gates:12 in
      let patterns =
        Array.init (1 lsl n_pi) (fun p ->
            Array.init n_pi (fun i -> p lsr i land 1 = 1))
      in
      let faults = Fault.collapsed nl in
      let exhaustive = Fsim.comb nl ~patterns faults in
      List.for_all
        (fun f ->
          let detectable = List.mem f exhaustive.Fsim.detected in
          match Podem.generate_comb ~backtrack_limit:2000 nl ~fault:f with
          | Podem.Test assign, _ ->
            (* The test must really detect, and the fault must be
               detectable. *)
            detectable
            && Podem.check nl ~faults:[ f ] ~assignment:assign
                 ~observe:(Netlist.pos nl)
          | Podem.Untestable, _ -> not detectable
          | Podem.Aborted, _ -> true (* inconclusive is permitted *))
        faults)

let prop_seq_atpg_tests_consistent =
  QCheck.Test.make ~name:"full-scan view never claims less than no-scan"
    ~count:20
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let nl = random_comb_netlist rng ~n_pi:4 ~n_gates:10 in
      (* Purely combinational: sequential ATPG with 1 frame must agree
         with combinational PODEM. *)
      let faults =
        Fault.collapsed nl |> List.filteri (fun i _ -> i mod 5 = 0)
      in
      let stats = Seq_atpg.run ~max_frames:1 nl ~faults ~scanned:[] in
      let comb_detected =
        List.length
          (List.filter
             (fun f ->
               match Podem.generate_comb ~backtrack_limit:2000 nl ~fault:f with
               | Podem.Test _, _ -> true
               | _ -> false)
             faults)
      in
      stats.Seq_atpg.detected = comb_detected)

(* ------------------------------------------------------------------ *)
(* Fault-dropping pipeline: collapsing, cone fsim, drop strategy      *)
(* ------------------------------------------------------------------ *)

let sorted_faults fs = List.sort compare fs

(* The cone-limited fault simulator must be bit-identical to the naive
   whole-netlist oracle on every pattern set. *)
let prop_fsim_cone_matches_naive =
  QCheck.Test.make ~name:"Fsim.comb Cone bit-identical to Naive" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let n_pi = 3 + Hft_util.Rng.int rng 4 in
      let nl = random_comb_netlist rng ~n_pi ~n_gates:15 in
      let patterns =
        Array.init 24 (fun _ ->
            Array.init n_pi (fun _ -> Hft_util.Rng.bool rng))
      in
      let faults = Fault.universe nl in
      let naive = Fsim.comb ~strategy:Fsim.Naive nl ~patterns faults in
      let cone = Fsim.comb ~strategy:Fsim.Cone nl ~patterns faults in
      sorted_faults naive.Fsim.detected = sorted_faults cone.Fsim.detected)

(* The X-sound drop check must agree between strategies and with the
   dual-simulation oracle PODEM itself uses. *)
let tri_strategies_agree nl ~assignment ~observe groups =
  let naive =
    Fsim.detect_groups_tri ~strategy:Fsim.Naive nl ~assignment ~observe groups
  in
  let cone =
    Fsim.detect_groups_tri ~strategy:Fsim.Cone nl ~assignment ~observe groups
  in
  naive = cone
  && List.for_all2
       (fun g flag -> flag = Podem.check nl ~faults:g ~assignment ~observe)
       groups (Array.to_list naive)

(* A partial assignment: some sources stay at X. *)
let partial_assignment rng sources =
  sources
  |> List.filter (fun _ -> Hft_util.Rng.int rng 3 > 0)
  |> List.map (fun v -> (v, Hft_util.Rng.bool rng))

let prop_detect_groups_tri_matches_check =
  QCheck.Test.make
    ~name:"detect_groups_tri: Cone = Naive = Podem.check" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let n_pi = 3 + Hft_util.Rng.int rng 3 in
      let nl = random_comb_netlist rng ~n_pi ~n_gates:12 in
      tri_strategies_agree nl
        ~assignment:(partial_assignment rng (Netlist.pis nl))
        ~observe:(Netlist.pos nl)
        (List.map (fun f -> [ f ]) (Fault.universe nl)))

(* The shape the drop pass really feeds: a time-frame unrolled
   sequential circuit (frame-0 DFF copies become PIs, later ones
   buffers), one group per fault replicated across frames by the
   unroll's fault map — pin faults on every DFF included, whose frame-0
   copy is a PI carrying a pin fault — and a partial assignment of the
   assignable inputs (unscanned initial state always X). *)
let prop_detect_groups_tri_unrolled =
  QCheck.Test.make
    ~name:"detect_groups_tri on unrolled circuits: Cone = Naive = Podem.check"
    ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let nl =
        Netlist_gen.sequential ~seed ~n_pi:3 ~n_dff:3 ~n_gates:12
      in
      let frames = 1 + Hft_util.Rng.int rng 3 in
      let scanned =
        List.filter (fun _ -> Hft_util.Rng.bool rng) (Netlist.dffs nl)
      in
      let u, assignable, observe, map_fault =
        Seq_atpg.unroll nl ~frames ~scanned
      in
      let dff_pin_faults =
        List.concat_map
          (fun d ->
            [ { Fault.node = d; pin = Some 0; stuck = false };
              { Fault.node = d; pin = Some 0; stuck = true } ])
          (Netlist.dffs nl)
      in
      tri_strategies_agree u
        ~assignment:(partial_assignment rng assignable)
        ~observe
        (List.map map_fault (Fault.universe nl @ dff_pin_faults)))

(* The two-valued single-pattern check against the independent
   pattern-parallel engine: with every source defined (unlisted PIs and
   all DFF states at 0) [detect_groups] must flag exactly the faults
   [Fsim.comb] detects with that one pattern. *)
let prop_detect_groups_matches_comb =
  QCheck.Test.make ~name:"detect_groups = Fsim.comb on one pattern" ~count:60
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let nl =
        Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:14
      in
      let pis = Netlist.pis nl in
      let pattern =
        Array.of_list (List.map (fun _ -> Hft_util.Rng.bool rng) pis)
      in
      (* List every 1 bit, and only some 0 bits: unlisted PIs read 0. *)
      let assignment =
        List.mapi (fun i pi -> (pi, pattern.(i))) pis
        |> List.filter (fun (_, b) -> b || Hft_util.Rng.bool rng)
      in
      let faults = Fault.universe nl in
      let flags =
        Fsim.detect_groups nl ~assignment ~observe:(Netlist.pos nl)
          (List.map (fun f -> [ f ]) faults)
      in
      let r = Fsim.comb nl ~patterns:[| pattern |] faults in
      List.for_all2
        (fun f flag -> flag = List.mem f r.Fsim.detected)
        faults (Array.to_list flags))

let test_fault_collapse_invariants () =
  let rng = Hft_util.Rng.create 77 in
  let nl = random_comb_netlist rng ~n_pi:5 ~n_gates:15 in
  let u = Fault.universe nl in
  let fc = Fault_collapse.compute nl in
  check_int "covers the universe" (List.length u) (Fault_collapse.n_faults fc);
  (* Classes partition the universe: every fault belongs to exactly one
     class, and member lists are disjoint and complete. *)
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  for c = 0 to Fault_collapse.n_classes fc - 1 do
    let ms = Fault_collapse.members fc c in
    check "class non-empty" true (ms <> []);
    check "representative is a member" true
      (List.mem (Fault_collapse.representative fc c) ms);
    List.iter
      (fun f ->
        check "no overlap" false (Hashtbl.mem seen f);
        Hashtbl.replace seen f ();
        check "class_of agrees" true (Fault_collapse.class_of fc f = Some c);
        incr total)
      ms
  done;
  check_int "partition complete" (List.length u) !total;
  (* Semantic soundness: members share one faulty function, so any
     pattern set detects all of a class or none of it. *)
  let patterns =
    Array.init 32 (fun _ -> Array.init 5 (fun _ -> Hft_util.Rng.bool rng))
  in
  let r = Fsim.comb nl ~patterns u in
  let det = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace det f ()) r.Fsim.detected;
  for c = 0 to Fault_collapse.n_classes fc - 1 do
    match Fault_collapse.members fc c with
    | [] | [ _ ] -> ()
    | m :: ms ->
      let d0 = Hashtbl.mem det m in
      List.iter
        (fun f ->
          if Hashtbl.mem det f <> d0 then
            Alcotest.failf "class %d split by fault simulation" c)
        ms
  done

(* The Drop pipeline must reach exactly the Naive verdicts — collapsing
   and dropping are pure work-avoidance, not approximation. *)
let prop_seq_atpg_drop_matches_naive =
  QCheck.Test.make ~name:"Seq_atpg Drop verdicts = Naive verdicts" ~count:20
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Hft_util.Rng.create seed in
      let nl = random_comb_netlist rng ~n_pi:4 ~n_gates:10 in
      let faults = Fault.universe nl in
      let naive =
        Seq_atpg.run ~backtrack_limit:2000 ~max_frames:1
          ~strategy:Seq_atpg.Naive nl ~faults ~scanned:[]
      in
      let drop =
        Seq_atpg.run ~backtrack_limit:2000 ~max_frames:1
          ~strategy:Seq_atpg.Drop nl ~faults ~scanned:[]
      in
      naive.Seq_atpg.aborted = 0 && drop.Seq_atpg.aborted = 0
      && naive.Seq_atpg.detected = drop.Seq_atpg.detected
      && naive.Seq_atpg.untestable = drop.Seq_atpg.untestable
      (* ...and it must actually be cheaper (or equal on tiny cases). *)
      && drop.Seq_atpg.implications <= naive.Seq_atpg.implications)

let test_seq_atpg_drop_on_sequential () =
  (* Same equivalence on a genuinely sequential circuit. *)
  let nl = shift_register () in
  let faults = Fault.universe nl in
  let naive =
    Seq_atpg.run ~max_frames:4 ~strategy:Seq_atpg.Naive nl ~faults ~scanned:[]
  in
  let drop =
    Seq_atpg.run ~max_frames:4 ~strategy:Seq_atpg.Drop nl ~faults ~scanned:[]
  in
  check_int "detected equal" naive.Seq_atpg.detected drop.Seq_atpg.detected;
  check_int "untestable equal" naive.Seq_atpg.untestable
    drop.Seq_atpg.untestable;
  check "drop effort no worse" true
    (drop.Seq_atpg.implications <= naive.Seq_atpg.implications)

(* Minimized fuzz find (seed 4246): the multi-frame PODEM's propagation
   objective list once had a gap — when every D-frontier gate's first
   unassigned input was already implied, no objective backtraced and
   the search concluded Untestable while a different schedule (the
   drop engine, warmed by earlier tests) detected the same fault
   (n12.in0/SA1).  The fallback objectives close the gap; this is the
   differential regression pinning it. *)
let test_seq_atpg_seed_4246_sound () =
  let nl = Netlist_gen.sequential ~seed:4246 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  let outcomes strategy =
    Hft_obs.with_enabled true @@ fun () ->
    Hft_obs.reset ();
    ignore
      (Seq_atpg.run ~backtrack_limit:30 ~max_frames:3 ~strategy nl ~faults
         ~scanned);
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (row : Hft_obs.Ledger.row) ->
        let kind = Hft_obs.Ledger.resolution_key row.Hft_obs.Ledger.lr_resolution in
        List.iter
          (fun m -> Hashtbl.replace tbl m kind)
          row.Hft_obs.Ledger.lr_members)
      (Hft_obs.Ledger.rows ());
    Hft_obs.reset ();
    tbl
  in
  let o_naive = outcomes Seq_atpg.Naive in
  let o_drop = outcomes Seq_atpg.Drop in
  let is_detected k =
    List.mem k [ "drop_detected"; "podem_detected"; "salvaged" ]
  in
  (* The historical failure mode, pinned exactly. *)
  (match Hashtbl.find_opt o_naive "n12.in0/SA1" with
   | Some k ->
     check "naive detects n12.in0/SA1" true (is_detected k)
   | None -> Alcotest.fail "n12.in0/SA1 missing from naive ledger");
  (match Hashtbl.find_opt o_drop "n12.in0/SA1" with
   | Some k -> check "drop detects n12.in0/SA1" true (is_detected k)
   | None -> Alcotest.fail "n12.in0/SA1 missing from drop ledger");
  (* ...and the general soundness differential over the whole circuit:
     detected-by-one, proven-untestable-by-the-other is always a bug. *)
  Hashtbl.iter
    (fun f k1 ->
      match Hashtbl.find_opt o_drop f with
      | Some k2 ->
        if
          (is_detected k1 && k2 = "untestable")
          || (k1 = "untestable" && is_detected k2)
        then
          Alcotest.failf "fault %s: naive says %s, drop says %s" f k1 k2
      | None -> Alcotest.failf "fault %s missing from drop ledger" f)
    o_naive

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hft_gate"
    [
      ( "netlist",
        [
          Alcotest.test_case "structure" `Quick test_netlist_structure;
          Alcotest.test_case "arity" `Quick test_netlist_arity_checked;
          Alcotest.test_case "cycle detection" `Quick test_comb_cycle_detected;
          Alcotest.test_case "sequential sim" `Quick test_sequential_sim;
        ] );
      ( "expand",
        [
          Alcotest.test_case "blocks match reference" `Quick
            test_blocks_match_reference;
          Alcotest.test_case "multi-kind block" `Quick test_multi_kind_block;
          qt prop_adder_width_sweep;
          Alcotest.test_case "datapath expansion matches RTL" `Quick
            test_expanded_datapath_matches_rtl;
          Alcotest.test_case "expansion with state" `Quick
            test_expanded_with_state;
        ] );
      ( "fault",
        [
          Alcotest.test_case "universe" `Quick test_fault_universe;
          Alcotest.test_case "fsim obvious" `Quick test_fsim_detects_obvious;
          Alcotest.test_case "adder coverage" `Quick
            test_fsim_random_coverage_high_on_adder;
          Alcotest.test_case "curve monotone" `Quick test_coverage_curve_monotone;
        ] );
      ( "podem",
        [
          Alcotest.test_case "simple" `Quick test_podem_simple;
          Alcotest.test_case "redundant untestable" `Quick
            test_podem_untestable_redundant;
          Alcotest.test_case "verified by fsim" `Quick
            test_podem_tests_verified_by_fsim;
          Alcotest.test_case "full adder coverage" `Quick
            test_podem_full_coverage_small_adder;
        ] );
      ( "seq_atpg",
        [
          Alcotest.test_case "unroll" `Quick test_unroll_structure;
          Alcotest.test_case "shift register" `Quick test_seq_atpg_shift_register;
          Alcotest.test_case "scan helps loop" `Quick
            test_seq_atpg_scan_helps_loop;
          qt prop_seq_atpg_tests_consistent;
        ] );
      ( "podem_vs_exhaustive",
        [ qt prop_podem_agrees_with_exhaustive ] );
      ( "fault_dropping",
        [
          qt prop_fsim_cone_matches_naive;
          qt prop_detect_groups_tri_matches_check;
          Alcotest.test_case "collapse invariants" `Quick
            test_fault_collapse_invariants;
          qt prop_seq_atpg_drop_matches_naive;
          Alcotest.test_case "drop on sequential" `Quick
            test_seq_atpg_drop_on_sequential;
          Alcotest.test_case "seed 4246 reproducer sound" `Quick
            test_seq_atpg_seed_4246_sound;
          qt prop_detect_groups_tri_unrolled;
          qt prop_detect_groups_matches_comb;
        ] );
      ( "ctrl_expand",
        [
          Alcotest.test_case "composite matches RTL" `Quick
            test_composite_matches_rtl;
          Alcotest.test_case "composite ATPG" `Quick
            test_composite_atpg_test_vectors_help;
        ] );
      ( "gsgraph",
        [
          Alcotest.test_case "shift register" `Quick test_gsgraph_shift_register;
          Alcotest.test_case "loop" `Quick test_gsgraph_loop;
          Alcotest.test_case "expanded diffeq" `Quick
            test_gsgraph_expanded_diffeq_has_loops;
        ] );
    ]
