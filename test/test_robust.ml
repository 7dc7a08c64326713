(* Hft_robust: typed failures, deterministic chaos, cooperative
   deadlines, the supervisor retry ladder, validation diagnostics,
   checkpoint round-trips — and the end-to-end guarantees they buy a
   campaign: chaos never crashes it, and a killed-then-resumed run is
   bit-identical to an uninterrupted one. *)

open Hft_robust
open Hft_cdfg
open Hft_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_obs f =
  Hft_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
    (fun () -> Hft_obs.with_enabled true f)

(* ------------------------------------------------------------------ *)
(* Chaos harness                                                      *)
(* ------------------------------------------------------------------ *)

(* Which of [n] checks trip, as a sorted index list. *)
let trip_profile cfg n =
  Chaos.with_config cfg @@ fun () ->
  List.filter_map
    (fun i ->
      match Chaos.check Chaos.Podem with
      | () -> None
      | exception Chaos.Injection _ -> Some i)
    (List.init n (fun i -> i))

let test_chaos_deterministic () =
  let cfg =
    { Chaos.seed = 7; prob = 0.3; sites = [ Chaos.Podem ]; arm_after = 3 }
  in
  let a = trip_profile cfg 50 and b = trip_profile cfg 50 in
  check "same seed, same trips" true (a = b);
  check "some checks trip" true (a <> []);
  check "arm_after shields the first checks" true
    (List.for_all (fun i -> i >= 3) a);
  let c = trip_profile { cfg with seed = 8 } 50 in
  check "different seed, different trips" true (a <> c)

let test_chaos_sites_and_restore () =
  check "disabled outside" false (Chaos.enabled ());
  let cfg =
    { Chaos.seed = 1; prob = 1.0; sites = [ Chaos.Fsim ]; arm_after = 0 }
  in
  Chaos.with_config cfg (fun () ->
      check "enabled inside" true (Chaos.enabled ());
      (* Unarmed site never trips even at prob 1. *)
      Chaos.check Chaos.Podem;
      check "armed site trips" true
        (match Chaos.check Chaos.Fsim with
         | () -> false
         | exception Chaos.Injection { site; seq } ->
           site = "fsim" && seq = 1));
  check "restored after" false (Chaos.enabled ());
  (* Restore holds when the body raises, too. *)
  (try Chaos.with_config cfg (fun () -> raise Exit) with Exit -> ());
  check "restored after raise" false (Chaos.enabled ())

(* ------------------------------------------------------------------ *)
(* Deadlines                                                          *)
(* ------------------------------------------------------------------ *)

let test_deadline_steps () =
  let d = Deadline.make ~steps:5 () in
  for _ = 1 to 5 do
    Deadline.tick d
  done;
  check "expires one past the limit" true
    (match Deadline.tick d with
     | () -> false
     | exception Deadline.Expired (Deadline.Steps { steps; limit }) ->
       steps = 6 && limit = 5
     | exception _ -> false);
  (* No bounds: never expires. *)
  let free = Deadline.make () in
  for _ = 1 to 10_000 do
    Deadline.tick free
  done;
  (* checker is just tick in hook shape. *)
  let d2 = Deadline.make ~steps:1 () in
  let hook = Deadline.checker d2 in
  hook ();
  check "checker raises like tick" true
    (match hook () with
     | () -> false
     | exception Deadline.Expired _ -> true)

(* ------------------------------------------------------------------ *)
(* Supervisor: protect + ladder                                       *)
(* ------------------------------------------------------------------ *)

let test_protect_classifies () =
  check "ok passes through" true
    (Supervisor.protect ~site:Chaos.Podem (fun () -> 42) = Ok 42);
  check "wall expiry -> Timeout" true
    (match
       Supervisor.protect ~site:Chaos.Podem (fun () ->
           raise (Deadline.Expired (Deadline.Wall { elapsed = 2.0; limit = 1.0 })))
     with
     | Error (Failure.Timeout { site; elapsed; limit }) ->
       site = "podem" && elapsed = 2.0 && limit = 1.0
     | _ -> false);
  check "step expiry -> Budget_exhausted" true
    (match
       Supervisor.protect ~site:Chaos.Fsim (fun () ->
           raise (Deadline.Expired (Deadline.Steps { steps = 9; limit = 8 })))
     with
     | Error (Failure.Budget_exhausted { site; steps; limit }) ->
       site = "fsim" && steps = 9 && limit = 8
     | _ -> false);
  check "other exception -> Engine_exception" true
    (match
       Supervisor.protect ~site:Chaos.Collapse (fun () -> failwith "boom")
     with
     | Error (Failure.Engine_exception msg) ->
       (* rendered, never re-raised *)
       String.length msg > 0
     | _ -> false);
  check "injection -> Injected" true
    (Chaos.with_config
       { Chaos.seed = 3; prob = 1.0; sites = [ Chaos.Podem ]; arm_after = 0 }
       (fun () ->
         match Supervisor.protect ~site:Chaos.Podem (fun () -> 0) with
         | Error (Failure.Injected { site = "podem"; seq = 1 }) -> true
         | _ -> false))

let test_ladder_budgets () =
  with_obs @@ fun () ->
  let budgets = ref [] in
  let r =
    Supervisor.ladder Supervisor.default ~site:Chaos.Podem ~budget:10
      (fun ~budget ~check:_ ->
        budgets := budget :: !budgets;
        if budget < 40 then failwith "not yet" else budget)
  in
  check "succeeds on the final rung" true (r = Ok 40);
  check "budgets double per rung" true (List.rev !budgets = [ 10; 20; 40 ]);
  check_int "two retries journalled" 2
    (Hft_obs.Registry.count "hft.robust.retries");
  check_int "final_budget matches the ladder" 40
    (Supervisor.final_budget Supervisor.default ~budget:10);
  (* Exhaustion returns the last failure. *)
  let attempts = ref 0 in
  let r2 =
    Supervisor.ladder Supervisor.default ~site:Chaos.Podem ~budget:1
      (fun ~budget:_ ~check:_ ->
        incr attempts;
        failwith "always")
  in
  check_int "1 + retries attempts" 3 !attempts;
  check "exhausted ladder reports the failure" true
    (match r2 with Error (Failure.Engine_exception _) -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

let test_validation_diag () =
  (match Validation.fail ~site:"netlist.add" ~hint:"wire it" "bad arity" with
   | _ -> Alcotest.fail "fail must raise"
   | exception Validation.Invalid d ->
     check_str "site" "netlist.add" d.Validation.site;
     check_str "message" "bad arity" d.Validation.message;
     check "hint" true (d.Validation.hint = Some "wire it");
     check_str "to_string"
       "netlist.add: bad arity (hint: wire it)"
       (Validation.to_string d));
  check "netlist checks raise typed diagnostics" true
    (let nl = Hft_gate.Netlist.create ~name:"t" () in
     match Hft_gate.Netlist.add nl Hft_gate.Netlist.And [||] with
     | _ -> false
     | exception Validation.Invalid { site = "netlist.add"; _ } -> true)

(* Out-of-range campaign knobs are typed input errors at the Flow
   entry points, not crashes deep inside sampling or data-path
   generation. *)
let raises_invalid ~site f =
  match f () with
  | _ -> false
  | exception Validation.Invalid d -> d.Validation.site = site

let test_validation_sample () =
  let r = Flow.synthesize_for_partial_scan ~width:4 (Paper_fig1.graph ()) in
  check "sample 0 rejected" true
    (raises_invalid ~site:"flow.test_campaign" (fun () ->
         Flow.test_campaign ~sample:0 r));
  check "negative sample rejected" true
    (raises_invalid ~site:"flow.test_campaign" (fun () ->
         Flow.test_campaign ~sample:(-3) r))

let test_validation_width () =
  List.iter
    (fun (name, kind) ->
      check (name ^ " width 0 rejected") true
        (raises_invalid ~site:"flow.synthesize" (fun () ->
             Flow.synthesize ~width:0 kind (Paper_fig1.graph ()))))
    Flow.flow_kinds

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                        *)
(* ------------------------------------------------------------------ *)

let tmp_ckpt () = Filename.temp_file "hft_ckpt" ".jsonl"

let mk_test ?(detects = [ (3, None, true); (4, Some 1, false) ]) () =
  {
    Checkpoint.ck_frames = 2;
    ck_vectors = [| [| true; false; true |]; [| false; false; true |] |];
    ck_scan = [| true; true |];
    ck_detects = detects;
  }

let test_checkpoint_roundtrip () =
  let path = tmp_ckpt () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let meta = [ ("bench", Hft_util.Json.String "x"); ("n", Hft_util.Json.Int 4) ] in
  let w = Checkpoint.create ~path ~meta in
  Checkpoint.append_test w (mk_test ());
  Checkpoint.append_class w ~rep:"n3/SA1"
    (Hft_obs.Ledger.Podem_detected { test = 0; backtracks = 5; frames = 2 });
  Checkpoint.append_class w ~rep:"n9/SA0"
    (Hft_obs.Ledger.Aborted
       { budget = 80; frames = 2; reason = Some "timeout(podem: 1.10s > 1.00s)" });
  Checkpoint.append_class w ~rep:"n2/SA0"
    (Hft_obs.Ledger.Proved_untestable { frames = 2 });
  Checkpoint.close w;
  match Checkpoint.load ~path with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok ck ->
    check "meta survives" true (ck.Checkpoint.meta = meta);
    check_int "one test" 1 (List.length ck.Checkpoint.tests);
    check_int "three classes" 3 (List.length ck.Checkpoint.classes);
    check "test round-trips" true (List.hd ck.Checkpoint.tests = mk_test ());
    check "resolutions round-trip" true
      (List.map (fun c -> c.Checkpoint.ck_resolution) ck.Checkpoint.classes
       = [ Hft_obs.Ledger.Podem_detected { test = 0; backtracks = 5; frames = 2 };
           Hft_obs.Ledger.Aborted
             { budget = 80; frames = 2;
               reason = Some "timeout(podem: 1.10s > 1.00s)" };
           Hft_obs.Ledger.Proved_untestable { frames = 2 } ])

let test_checkpoint_repairs_tail () =
  (* An uncommitted final test transaction — the test line landed but
     the committing podem_detected class line did not — rolls back,
     together with any drop lines referencing it. *)
  let path = tmp_ckpt () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let w = Checkpoint.create ~path ~meta:[] in
  Checkpoint.append_test w (mk_test ());
  Checkpoint.append_class w ~rep:"a"
    (Hft_obs.Ledger.Podem_detected { test = 0; backtracks = 1; frames = 1 });
  Checkpoint.append_test w (mk_test ~detects:[ (7, None, false) ] ());
  Checkpoint.append_class w ~rep:"b" (Hft_obs.Ledger.Drop_detected { test = 1 });
  Checkpoint.close w;
  (match Checkpoint.load ~path with
   | Error msg -> Alcotest.failf "load failed: %s" msg
   | Ok ck ->
     check_int "uncommitted test dropped" 1 (List.length ck.Checkpoint.tests);
     check "its drop line dropped too" true
       (List.for_all (fun c -> c.Checkpoint.ck_rep <> "b")
          ck.Checkpoint.classes));
  (* A torn (half-written) final line is likewise tolerated. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"kind\":\"test\",\"frames\":2,\"vec";
  close_out oc;
  (match Checkpoint.load ~path with
   | Error msg -> Alcotest.failf "torn tail not tolerated: %s" msg
   | Ok ck -> check_int "torn line ignored" 1 (List.length ck.Checkpoint.tests));
  (* Mid-file damage is corruption, not an interrupted run. *)
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let oc = open_out path in
  List.iteri
    (fun i l ->
      if l <> "" then begin
        output_string oc (if i = 1 then "garbage" else l);
        output_char oc '\n'
      end)
    lines;
  close_out oc;
  check "mid-file garbage is an error" true
    (match Checkpoint.load ~path with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Campaign-level guarantees                                          *)
(* ------------------------------------------------------------------ *)

let fig1_result () =
  let g = Paper_fig1.graph () in
  Flow.synthesize ~width:4 Flow.Partial_scan g

let run_campaign ?supervisor ?checkpoint ?resume ?jobs r =
  Flow.test_campaign ~backtrack_limit:20 ~max_frames:2 ~sample:4 ~seed:7
    ~n_patterns:32 ?supervisor ?checkpoint ?resume ?jobs r

(* Every outcome a campaign produces: per-fault verdicts, stored
   patterns, the final detected set, the forensics waterfall.  Effort
   counters (decisions/backtracks/implications) are deliberately
   excluded — a resumed campaign does not redo the work its checkpoint
   already recorded, so only outcomes can be compared across runs. *)
let fingerprint (c : Flow.campaign) =
  let s = c.Flow.c_atpg in
  ( ( s.Hft_gate.Seq_atpg.detected, s.untestable, s.aborted, s.total ),
    c.Flow.c_patterns_stored,
    List.sort compare c.Flow.c_fsim.Hft_gate.Fsim.detected,
    List.sort compare (Hft_obs.Ledger.waterfall ()) )

let test_supervisor_bit_identical () =
  (* Supervision on, chaos off: the happy path must not perturb the
     engines — same stats, patterns, coverage, waterfall. *)
  let r = fig1_result () in
  with_obs @@ fun () ->
  let c_on = run_campaign r in
  let on = (c_on.Flow.c_atpg, fingerprint c_on) in
  Hft_obs.reset ();
  let c_off = run_campaign ~supervisor:None r in
  let off = (c_off.Flow.c_atpg, fingerprint c_off) in
  check "supervised run is bit-identical (effort counters included)" true
    (on = off)

let test_chaos_never_crashes () =
  (* Engine-site injections armed hot: the campaign must terminate with
     a conserved waterfall, never escape with an exception. *)
  let r = fig1_result () in
  List.iter
    (fun seed ->
      with_obs @@ fun () ->
      let c =
        Chaos.with_config
          { Chaos.seed;
            prob = 0.25;
            sites = [ Chaos.Podem; Chaos.Fsim; Chaos.Collapse ];
            arm_after = 0 }
          (fun () -> run_campaign r)
      in
      let wf = Hft_obs.Ledger.waterfall () in
      check_int
        (Printf.sprintf "seed %d: waterfall classes conserve" seed)
        (Hft_obs.Ledger.n_classes ())
        (List.fold_left (fun acc (_, (cl, _)) -> acc + cl) 0 wf);
      check_int
        (Printf.sprintf "seed %d: waterfall faults conserve" seed)
        (List.length c.Flow.c_faults)
        (List.fold_left (fun acc (_, (_, fa)) -> acc + fa) 0 wf))
    [ 11; 23; 37 ]

let test_checkpoint_resume_bit_identical () =
  (* Kill the campaign at a serialisation boundary via chaos, resume
     chaos-off, and compare against an uninterrupted reference run. *)
  let r = fig1_result () in
  let reference =
    with_obs @@ fun () ->
    let path = tmp_ckpt () in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    fingerprint (run_campaign ~checkpoint:path r)
  in
  let path = tmp_ckpt () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let killed =
    with_obs @@ fun () ->
    match
      Chaos.with_config
        { Chaos.seed = 5; prob = 1.0; sites = [ Chaos.Serialize ];
          arm_after = 4 }
        (fun () -> run_campaign ~checkpoint:path r)
    with
    | _ -> false
    | exception Chaos.Injection _ -> true
  in
  check "chaos killed the campaign mid-run" true killed;
  let resumed, resumed_counts =
    with_obs @@ fun () ->
    let c = run_campaign ~checkpoint:path ~resume:true r in
    (fingerprint c, (c.Flow.c_resumed_classes, c.Flow.c_resumed_tests))
  in
  check "resumed run restored prior work" true
    (fst resumed_counts > 0 || snd resumed_counts > 0);
  check "resumed run is bit-identical to the uninterrupted one" true
    (resumed = reference)

let test_checkpoint_resume_parallel_torn () =
  (* The same kill-and-resume contract under the domain pool: chaos
     kills a -j4 campaign at a serialisation boundary, the process dies
     mid-write (simulated by appending a half line to the checkpoint),
     and a -j4 resume must repair the torn tail and land bit-identical
     to an uninterrupted -j4 run. *)
  let r = fig1_result () in
  let jobs = 4 in
  let reference =
    with_obs @@ fun () ->
    let path = tmp_ckpt () in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    fingerprint (run_campaign ~checkpoint:path ~jobs r)
  in
  let path = tmp_ckpt () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let killed =
    with_obs @@ fun () ->
    match
      Chaos.with_config
        { Chaos.seed = 5; prob = 1.0; sites = [ Chaos.Serialize ];
          arm_after = 4 }
        (fun () -> run_campaign ~checkpoint:path ~jobs r)
    with
    | _ -> false
    | exception Chaos.Injection _ -> true
  in
  check "chaos killed the -j4 campaign mid-run" true killed;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"kind\":\"test\",\"frames\":2,\"vec";
  close_out oc;
  let resumed =
    with_obs @@ fun () ->
    fingerprint (run_campaign ~checkpoint:path ~resume:true ~jobs r)
  in
  check "-j4 torn-tail resume is bit-identical to uninterrupted -j4" true
    (resumed = reference);
  (* And the jobs count is not part of the checkpoint identity: the
     now-complete file resumes sequentially, restoring every class to
     the same outcomes. *)
  check "completed checkpoint resumes at -j1 to the same outcomes" true
    ((with_obs @@ fun () ->
      fingerprint (run_campaign ~checkpoint:path ~resume:true r))
     = reference)

let test_checkpoint_meta_mismatch () =
  let r = fig1_result () in
  let path = tmp_ckpt () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  with_obs @@ fun () ->
  ignore (run_campaign ~checkpoint:path r);
  Hft_obs.reset ();
  check "fingerprint mismatch rejects the resume" true
    (match
       Flow.test_campaign ~backtrack_limit:21 ~max_frames:2 ~sample:4 ~seed:7
         ~n_patterns:32 ~checkpoint:path ~resume:true r
     with
     | _ -> false
     | exception Validation.Invalid _ -> true)

let () =
  Alcotest.run "hft_robust"
    [
      ( "chaos",
        [
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "sites + restore" `Quick
            test_chaos_sites_and_restore;
        ] );
      ( "deadline",
        [ Alcotest.test_case "steps" `Quick test_deadline_steps ] );
      ( "supervisor",
        [
          Alcotest.test_case "protect classifies" `Quick test_protect_classifies;
          Alcotest.test_case "ladder budgets" `Quick test_ladder_budgets;
        ] );
      ( "validation",
        [ Alcotest.test_case "diagnostics" `Quick test_validation_diag;
          Alcotest.test_case "sample < 1" `Quick test_validation_sample;
          Alcotest.test_case "width < 1" `Quick test_validation_width ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "tail repair" `Quick test_checkpoint_repairs_tail;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "supervised = bare (chaos off)" `Quick
            test_supervisor_bit_identical;
          Alcotest.test_case "chaos never crashes" `Quick
            test_chaos_never_crashes;
          Alcotest.test_case "kill + resume bit-identical" `Quick
            test_checkpoint_resume_bit_identical;
          Alcotest.test_case "-j4 kill + torn tail + resume" `Quick
            test_checkpoint_resume_parallel_torn;
          Alcotest.test_case "resume fingerprint mismatch" `Quick
            test_checkpoint_meta_mismatch;
        ] );
    ]
