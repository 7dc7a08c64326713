(* Hft_par: the multicore ATPG engine's determinism contract.

   The whole point of the domain-pool sharding is that it is invisible
   in the results: coverage, verdicts, test sets, engine counters and
   the fault-forensics waterfall must be bit-identical at any jobs
   count, chaos-killed worker domains included.  These tests pin that
   contract — plus the thread safety of the observability layer the
   workers write through. *)

open Hft_gate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_obs f =
  Hft_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Hft_obs.enabled := false;
      Hft_obs.reset ())
    (fun () -> Hft_obs.with_enabled true f)

(* ------------------------------------------------------------------ *)
(* Knobs                                                              *)
(* ------------------------------------------------------------------ *)

let test_knobs () =
  check_int "zero clamps to 1" 1 (Hft_par.clamp_jobs 0);
  check_int "negative clamps to 1" 1 (Hft_par.clamp_jobs (-3));
  check_int "in range passes" 4 (Hft_par.clamp_jobs 4);
  check_int "huge clamps to 64" 64 (Hft_par.clamp_jobs 1000);
  Unix.putenv "HFT_JOBS" "6";
  check_int "HFT_JOBS read" 6 (Hft_par.jobs_from_env ());
  Unix.putenv "HFT_JOBS" "banana";
  check_int "garbage falls back to 1" 1 (Hft_par.jobs_from_env ());
  Unix.putenv "HFT_JOBS" "0";
  check_int "non-positive falls back to 1" 1 (Hft_par.jobs_from_env ());
  Unix.putenv "HFT_JOBS" ""

(* ------------------------------------------------------------------ *)
(* Observability layer under concurrent hammering                     *)
(* ------------------------------------------------------------------ *)

(* Four domains hammer the registry, journal and ledger at once; every
   write must land exactly once (lost updates were the failure mode of
   the pre-mutex implementation). *)
let test_obs_hammer () =
  with_obs @@ fun () ->
  let n_dom = 4 and per = 2000 in
  let body () =
    for i = 1 to per do
      Hft_obs.Registry.incr "hft.par.hammer";
      Hft_obs.Registry.observe "hft.par.lat" (float_of_int (i land 7));
      Hft_obs.Journal.record
        (Hft_obs.Journal.Note { key = "hammer"; value = "x" });
      let h = Hft_obs.Ledger.register_class ~rep:"r" ~members:[ "m" ] in
      Hft_obs.Ledger.resolve h
        (Hft_obs.Ledger.Proved_untestable { frames = 1 })
    done
  in
  let others = List.init (n_dom - 1) (fun _ -> Domain.spawn body) in
  body ();
  List.iter Domain.join others;
  check_int "counter increments all land" (n_dom * per)
    (Hft_obs.Registry.count "hft.par.hammer");
  check_int "ledger classes all land" (n_dom * per)
    (Hft_obs.Ledger.n_classes ());
  (* One Note per iteration plus one Class_resolved per resolve. *)
  check_int "journal records all land" (2 * n_dom * per)
    (Hft_obs.Journal.recorded ())

(* ------------------------------------------------------------------ *)
(* Differential harness                                               *)
(* ------------------------------------------------------------------ *)

(* Journal events modulo wall-clock: the tape a parallel run commits
   must be the sequential tape, entry for entry. *)
let event_sig (e : Hft_obs.Journal.entry) =
  let open Hft_obs.Journal in
  match e.e_event with
  | Phase_begin { name } -> "begin " ^ name
  | Phase_end { name; _ } -> "end " ^ name
  | Collapse { faults; classes } ->
    Printf.sprintf "collapse %d %d" faults classes
  | Atpg_target { cls; rep; frames } ->
    Printf.sprintf "target %d %s %d" cls rep frames
  | Podem_result { cls; outcome; frames; backtracks } ->
    Printf.sprintf "podem %d %s %d %d" cls outcome frames backtracks
  | Static_untestable { cls; frames } ->
    Printf.sprintf "static %d %d" cls frames
  | Backtrack { backtracks; decisions; implications } ->
    Printf.sprintf "btk %d %d %d" backtracks decisions implications
  | Test_generated { test; frames } -> Printf.sprintf "test %d %d" test frames
  | Fault_dropped { cls; test } -> Printf.sprintf "dropped %d %d" cls test
  | Class_resolved { cls; outcome; faults } ->
    Printf.sprintf "resolved %d %s %d" cls outcome faults
  | Fsim_run { faults; detected; patterns; events } ->
    Printf.sprintf "fsim %d %d %d %d" faults detected patterns events
  | Retry { site; attempt; budget } ->
    Printf.sprintf "retry %s %d %d" site attempt budget
  | Degraded { site; action } -> Printf.sprintf "degraded %s %s" site action
  | Checkpoint { classes; tests } -> Printf.sprintf "ckpt %d %d" classes tests
  | Note { key; value } -> Printf.sprintf "note %s %s" key value
  | Shard_stats { jobs; tasks; _ } ->
    (* Jobs-varying by nature (recorded once per campaign by the flow,
       never by the engines), so it can never appear on an engine tape —
       the differential tests below would rightly fail if it did. *)
    Printf.sprintf "shard-stats %d %d" jobs tasks

type fingerprint = {
  fp_stats : Seq_atpg.stats;
  fp_waterfall : string;
  fp_backtracks : int;
  fp_events : int;
  fp_unrolls : int;
  fp_retries : int;
  fp_tests : (int * bool array array * bool array) list;
  fp_journal : string list;
}

let seq_fingerprint ?on_par_stats ~jobs nl ~faults ~scanned =
  with_obs @@ fun () ->
  let tests = ref [] in
  let stats =
    Seq_atpg.run ~backtrack_limit:30 ~max_frames:3 ~jobs ?on_par_stats
      ~on_test:(fun t ->
        tests :=
          (t.Seq_atpg.t_frames, t.Seq_atpg.t_pi_vectors,
           t.Seq_atpg.t_scan_state)
          :: !tests)
      nl ~faults ~scanned
  in
  {
    fp_stats = stats;
    fp_waterfall = Hft_util.Json.to_string (Hft_obs.Ledger.waterfall_json ());
    fp_backtracks = Hft_obs.Registry.count "hft.podem.backtracks";
    fp_events = Hft_obs.Registry.count "hft.fsim.events";
    fp_unrolls = Hft_obs.Registry.count "hft.seq_atpg.unrolls";
    fp_retries = Hft_obs.Registry.count "hft.robust.retries";
    fp_tests = List.rev !tests;
    fp_journal = List.map event_sig (Hft_obs.Journal.entries ());
  }

let check_identical tag base fp =
  check (tag ^ ": stats") true (fp.fp_stats = base.fp_stats);
  Alcotest.(check string)
    (tag ^ ": waterfall") base.fp_waterfall fp.fp_waterfall;
  check_int (tag ^ ": podem backtracks") base.fp_backtracks fp.fp_backtracks;
  check_int (tag ^ ": fsim events") base.fp_events fp.fp_events;
  check_int (tag ^ ": unrolls") base.fp_unrolls fp.fp_unrolls;
  check_int (tag ^ ": retries") base.fp_retries fp.fp_retries;
  check (tag ^ ": test set") true (fp.fp_tests = base.fp_tests);
  Alcotest.(check (list string))
    (tag ^ ": journal tape") base.fp_journal fp.fp_journal

(* Sequential ATPG on seeded random circuits: -j2/-j4 must reproduce
   the -j1 run bit for bit, journal tape included. *)
let test_seq_differential () =
  List.iter
    (fun seed ->
      let nl = Netlist_gen.sequential ~seed ~n_pi:4 ~n_dff:3 ~n_gates:14 in
      let faults = Fault.collapsed nl in
      let scanned =
        List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl)
      in
      let base = seq_fingerprint ~jobs:1 nl ~faults ~scanned in
      check ("seed " ^ string_of_int seed ^ ": campaign nonempty") true
        (base.fp_stats.Seq_atpg.total > 0);
      List.iter
        (fun jobs ->
          let fp = seq_fingerprint ~jobs nl ~faults ~scanned in
          check_identical
            (Printf.sprintf "seed %d -j%d" seed jobs)
            base fp)
        [ 2; 4 ])
    [ 1; 2; 3 ]

(* Full-scan combinational ATPG on the paper's Figure 1 data paths:
   same contract on the second parallel engine. *)
let test_full_scan_differential () =
  List.iter
    (fun (name, which) ->
      (* [Full_scan.atpg] ends by inserting the scan chain (a netlist
         mutation), so every run gets a freshly expanded netlist. *)
      let run jobs =
        with_obs @@ fun () ->
        let _, d = Hft_core.Fig1_exp.datapath which in
        let nl = (Expand.of_datapath d).Expand.netlist in
        let faults = Fault.collapsed nl in
        let r = Hft_scan.Full_scan.atpg ~backtrack_limit:50 ~jobs nl ~faults in
        ( r.Hft_scan.Full_scan.stats,
          r.Hft_scan.Full_scan.tests,
          Hft_util.Json.to_string (Hft_obs.Ledger.waterfall_json ()),
          Hft_obs.Registry.count "hft.podem.backtracks",
          List.map event_sig (Hft_obs.Journal.entries ()) )
      in
      let s1, t1, w1, b1, j1 = run 1 in
      List.iter
        (fun jobs ->
          let s, t, w, b, j = run jobs in
          let tag = Printf.sprintf "%s -j%d" name jobs in
          check (tag ^ ": stats") true (s = s1);
          check (tag ^ ": test set") true (t = t1);
          Alcotest.(check string) (tag ^ ": waterfall") w1 w;
          check_int (tag ^ ": backtracks") b1 b;
          Alcotest.(check (list string)) (tag ^ ": journal tape") j1 j)
        [ 2; 4 ])
    [ ("fig1b", Hft_core.Fig1_exp.B); ("fig1c", Hft_core.Fig1_exp.C) ]

(* ------------------------------------------------------------------ *)
(* Chaos: killed worker domains degrade, never diverge                *)
(* ------------------------------------------------------------------ *)

(* With the Shard site firing on every check, every speculation dies
   and the orchestrator recomputes each class inline — the campaign
   must degrade (visible in the journal) and still land on the -j1
   results exactly. *)
let test_shard_chaos () =
  let nl = Netlist_gen.sequential ~seed:5 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  let base = seq_fingerprint ~jobs:1 nl ~faults ~scanned in
  let degraded = ref 0 in
  let fp =
    Hft_robust.Chaos.with_config
      {
        Hft_robust.Chaos.seed = 3;
        prob = 1.0;
        sites = [ Hft_robust.Chaos.Shard ];
        arm_after = 0;
      }
      (fun () ->
        let fp = seq_fingerprint ~jobs:4 nl ~faults ~scanned in
        degraded :=
          List.length
            (List.filter
               (fun s -> s = "degraded shard sequential-fallback")
               fp.fp_journal);
        fp)
  in
  check "some shards were killed" true (!degraded > 0);
  (* Everything but the journal (which legitimately carries the
     Degraded breadcrumbs) must match the clean sequential run. *)
  check "chaos: stats" true (fp.fp_stats = base.fp_stats);
  Alcotest.(check string) "chaos: waterfall" base.fp_waterfall fp.fp_waterfall;
  check_int "chaos: podem backtracks" base.fp_backtracks fp.fp_backtracks;
  check_int "chaos: fsim events" base.fp_events fp.fp_events;
  check_int "chaos: unrolls" base.fp_unrolls fp.fp_unrolls;
  check "chaos: test set" true (fp.fp_tests = base.fp_tests);
  check "chaos: non-degraded tape preserved" true
    (List.filter (fun s -> s <> "degraded shard sequential-fallback")
       fp.fp_journal
     = base.fp_journal);
  (* And a clean -j1 run under the same chaos config is untouched:
     the Shard site only exists inside pool worker bodies. *)
  let seq_under_chaos =
    Hft_robust.Chaos.with_config
      {
        Hft_robust.Chaos.seed = 3;
        prob = 1.0;
        sites = [ Hft_robust.Chaos.Shard ];
        arm_after = 0;
      }
      (fun () -> seq_fingerprint ~jobs:1 nl ~faults ~scanned)
  in
  check_identical "sequential under shard chaos" base seq_under_chaos

(* Nested chaos: a Shard-site kill whose inline recompute then hits
   Podem-site injections.  The orchestrator's fallback path runs the
   full supervised PODEM — so the -j4 run must land exactly on the -j1
   [Podem]-only run: same stats, waterfall, tests, and the same
   hft.robust.retries count (the dead worker's half-done attempts are
   discarded with its telemetry, never double-counted), with the only
   extra journal content being the Degraded shard breadcrumbs. *)
let test_nested_shard_podem_chaos () =
  let nl = Netlist_gen.sequential ~seed:5 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  let chaos sites f =
    Hft_robust.Chaos.with_config
      { Hft_robust.Chaos.seed = 3; prob = 1.0; sites; arm_after = 0 }
      f
  in
  (* prob 1.0 makes every armed check trip, so which checks fire does
     not depend on the shared chaos RNG's draw order across domains. *)
  let base =
    chaos [ Hft_robust.Chaos.Podem ] (fun () ->
        seq_fingerprint ~jobs:1 nl ~faults ~scanned)
  in
  check "podem chaos exercises the retry ladder" true (base.fp_retries > 0);
  let fp =
    chaos [ Hft_robust.Chaos.Shard; Hft_robust.Chaos.Podem ] (fun () ->
        seq_fingerprint ~jobs:4 nl ~faults ~scanned)
  in
  let degraded =
    List.length
      (List.filter
         (fun s -> s = "degraded shard sequential-fallback")
         fp.fp_journal)
  in
  check "shards were killed around the podem injections" true (degraded > 0);
  check "nested chaos: stats" true (fp.fp_stats = base.fp_stats);
  Alcotest.(check string)
    "nested chaos: waterfall" base.fp_waterfall fp.fp_waterfall;
  check "nested chaos: test set" true (fp.fp_tests = base.fp_tests);
  check_int "nested chaos: retries not double-counted" base.fp_retries
    fp.fp_retries;
  check "nested chaos: tape = base tape + Degraded breadcrumbs" true
    (List.filter (fun s -> s <> "degraded shard sequential-fallback")
       fp.fp_journal
     = base.fp_journal)

(* ------------------------------------------------------------------ *)
(* Scheduler telemetry: conservation laws and observationality        *)
(* ------------------------------------------------------------------ *)

(* The stats record is an accounting instrument, so it obeys accounting
   identities: every committed class is attributed to exactly one
   worker, every dispatched task lands in exactly one of
   hit/miss/inline, and no worker reports more time than the campaign
   had. *)
let check_stats_laws tag ~classes (s : Hft_par.Stats.t) =
  let open Hft_par.Stats in
  let sum f = Array.fold_left (fun a w -> a + f w) 0 s.s_workers in
  check_int (tag ^ ": worker count") s.s_jobs (Array.length s.s_workers);
  check_int
    (tag ^ ": class attribution conserves (sum w_classes = classes)")
    classes
    (sum (fun w -> w.w_classes));
  check_int
    (tag ^ ": task bucketing conserves (hits + misses + inline = tasks)")
    s.s_tasks
    (spec_hits s + spec_misses s + inline s);
  (* Steal symmetry: every steal has a victim. *)
  check_int (tag ^ ": steal symmetry") (sum (fun w -> w.w_steals))
    (sum (fun w -> w.w_stolen));
  (* Time budget: per worker, busy + idle + stall cannot exceed the
     campaign wall clock (10% + 5ms tolerance for clock jitter — idle
     is derived from two different clock reads than busy). *)
  let budget = int_of_float (1.1 *. float_of_int s.s_wall_ns) + 5_000_000 in
  Array.iter
    (fun w ->
      check
        (Printf.sprintf "%s: worker %d time budget" tag w.w_domain)
        true
        (w.w_busy_ns + w.w_idle_ns + w.w_stall_ns <= budget))
    s.s_workers;
  check (tag ^ ": utilization in [0,1]") true
    (utilization s >= 0.0 && utilization s <= 1.1);
  check (tag ^ ": occupancy in [0,1]") true
    (occupancy s >= 0.0 && occupancy s <= 1.0)

let test_stats_conservation () =
  let nl = Netlist_gen.sequential ~seed:2 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  List.iter
    (fun jobs ->
      let captured = ref None in
      let classes =
        with_obs @@ fun () ->
        let _ : Seq_atpg.stats =
          Seq_atpg.run ~backtrack_limit:30 ~max_frames:3 ~jobs
            ~on_par_stats:(fun s -> captured := Some s)
            nl ~faults ~scanned
        in
        Hft_obs.Ledger.n_classes ()
      in
      match !captured with
      | None -> Alcotest.fail (Printf.sprintf "-j%d: no stats reported" jobs)
      | Some s ->
        let tag = Printf.sprintf "seq -j%d" jobs in
        check_int (tag ^ ": jobs") jobs s.Hft_par.Stats.s_jobs;
        check_stats_laws tag ~classes s;
        if jobs = 1 then begin
          (* Degenerate sequential summary: one fully-busy worker. *)
          check (tag ^ ": sequential utilization is 1") true
            (Hft_par.Stats.utilization s = 1.0);
          check_int (tag ^ ": sequential has no tasks") 0
            s.Hft_par.Stats.s_tasks
        end
        else
          check (tag ^ ": parallel run dispatched tasks") true
            (s.Hft_par.Stats.s_tasks > 0))
    [ 1; 2; 4 ]

(* Same laws on the second engine (full-scan commits every chunk class,
   dropped ones included, so its task accounting is the trickier one). *)
let test_full_scan_stats () =
  let captured = ref None in
  let classes =
    with_obs @@ fun () ->
    let _, d = Hft_core.Fig1_exp.datapath Hft_core.Fig1_exp.B in
    let nl = (Expand.of_datapath d).Expand.netlist in
    let faults = Fault.collapsed nl in
    let _ : Hft_scan.Full_scan.result =
      Hft_scan.Full_scan.atpg ~backtrack_limit:50 ~jobs:4
        ~on_par_stats:(fun s -> captured := Some s)
        nl ~faults
    in
    Hft_obs.Ledger.n_classes ()
  in
  match !captured with
  | None -> Alcotest.fail "full-scan: no stats reported"
  | Some s -> check_stats_laws "full-scan -j4" ~classes s

(* Telemetry is observational: collecting it must not move a single
   bit of the campaign's results, journal tape included. *)
let test_stats_observational () =
  let nl = Netlist_gen.sequential ~seed:4 ~n_pi:4 ~n_dff:3 ~n_gates:14 in
  let faults = Fault.collapsed nl in
  let scanned = List.filteri (fun i _ -> i mod 2 = 0) (Netlist.dffs nl) in
  List.iter
    (fun jobs ->
      let base = seq_fingerprint ~jobs nl ~faults ~scanned in
      let fp =
        seq_fingerprint ~on_par_stats:(fun _ -> ()) ~jobs nl ~faults ~scanned
      in
      check_identical (Printf.sprintf "stats on vs off -j%d" jobs) base fp)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* End-to-end: the campaign entry point                               *)
(* ------------------------------------------------------------------ *)

(* Flow.test_campaign with ~jobs — the path the CLI exercises — must
   agree with the sequential campaign on coverage and waterfall. *)
let test_campaign_jobs () =
  let g = Hft_cdfg.Paper_fig1.graph () in
  let r = Hft_core.Flow.synthesize ~width:4 Hft_core.Flow.Partial_scan g in
  let run jobs =
    with_obs @@ fun () ->
    let c =
      Hft_core.Flow.test_campaign ~backtrack_limit:20 ~max_frames:2 ~sample:4
        ~seed:7 ~n_patterns:16 ~guided:false ~jobs r
    in
    ( c.Hft_core.Flow.c_atpg,
      Hft_gate.Fsim.coverage c.Hft_core.Flow.c_fsim,
      c.Hft_core.Flow.c_patterns_stored,
      Hft_util.Json.to_string (Hft_obs.Ledger.waterfall_json ()) )
  in
  let s1, cov1, p1, w1 = run 1 in
  List.iter
    (fun jobs ->
      let s, cov, p, w = run jobs in
      let tag = Printf.sprintf "campaign -j%d" jobs in
      check (tag ^ ": atpg stats") true (s = s1);
      check (tag ^ ": fsim coverage") true (cov = cov1);
      check_int (tag ^ ": patterns stored") p1 p;
      Alcotest.(check string) (tag ^ ": waterfall") w1 w)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* The driver alone, on a synthetic task set                          *)
(* ------------------------------------------------------------------ *)

(* [commit_in_order] without an engine: committing index [i] resolves
   some later indexes, the way a fault drop does, and [eval] is a pure
   function of the index.  The commit sequence must be the plain
   sequential loop's at any jobs count, every speculation handed to a
   commit must be that index's own, and every dispatched task must land
   in exactly one of hit / miss / inline. *)
let drive_synthetic ~jobs =
  let n = 61 in
  let resolved = Array.make n false in
  let commits = ref [] in
  let stats = ref None in
  Hft_par.commit_in_order ~t0:(Hft_obs.Clock.now ()) ~jobs ~n
    ~on_stats:(fun s -> stats := Some s)
    ~pending:(fun i -> not resolved.(i))
    ~init:(fun () -> ())
    ~eval:(fun () i -> 10 * i)
    ~commit:(fun ?spec i ->
      commits := (i, spec) :: !commits;
      resolved.(i) <- true;
      for j = i + 1 to n - 1 do
        if (i + (2 * j)) mod 5 = 0 then resolved.(j) <- true
      done)
    ();
  (List.rev !commits, Option.get !stats)

let test_driver_synthetic () =
  let reference, _ = drive_synthetic ~jobs:1 in
  let expected = List.map fst reference in
  check "reference skips resolved indexes" true
    (List.length expected > 0 && List.length expected < 61);
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "driver -j%d" jobs in
      let commits, s = drive_synthetic ~jobs in
      let order = List.map fst commits in
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      check (tag ^ ": commits strictly ascending") true (ascending order);
      Alcotest.(check (list int))
        (tag ^ ": each pending index committed once") expected order;
      check (tag ^ ": a spec is the index's own evaluation") true
        (List.for_all
           (fun (i, spec) ->
             match spec with Some v -> v = 10 * i | None -> true)
           commits);
      let inline_commits =
        List.length (List.filter (fun (_, spec) -> spec = None) commits)
      in
      let open Hft_par.Stats in
      check_int (tag ^ ": spec absent exactly on inline commits")
        (if jobs = 1 then List.length commits else inline s)
        inline_commits;
      check_int (tag ^ ": hits + misses + inline = tasks") s.s_tasks
        (spec_hits s + spec_misses s + inline s);
      check_int (tag ^ ": hits are the commits with a spec")
        (List.length commits - inline_commits)
        (spec_hits s);
      if jobs > 1 then
        check (tag ^ ": some speculation was discarded") true
          (spec_misses s > 0))
    [ 1; 2; 4 ];
  (* Every shard killed at entry: no speculation survives, so every
     commit is inline, and each dead shard leaves one breadcrumb. *)
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "driver shard chaos -j%d" jobs in
      with_obs @@ fun () ->
      let commits, s =
        Hft_robust.Chaos.with_config
          { Hft_robust.Chaos.seed = 3; prob = 1.0;
            sites = [ Hft_robust.Chaos.Shard ]; arm_after = 0 }
          (fun () -> drive_synthetic ~jobs)
      in
      Alcotest.(check (list int))
        (tag ^ ": commit sequence unchanged") expected (List.map fst commits);
      check (tag ^ ": every commit inline") true
        (List.for_all (fun (_, spec) -> spec = None) commits);
      let open Hft_par.Stats in
      check_int (tag ^ ": no hits") 0 (spec_hits s);
      let breadcrumbs =
        List.length
          (List.filter
             (fun (e : Hft_obs.Journal.entry) ->
               match e.e_event with
               | Hft_obs.Journal.Degraded { site = "shard"; _ } -> true
               | _ -> false)
             (Hft_obs.Journal.entries ()))
      in
      check (tag ^ ": waves ran") true (s.s_waves > 0);
      check_int (tag ^ ": one breadcrumb per dead shard") (s.s_waves * jobs)
        breadcrumbs;
      check_int (tag ^ ": degraded counter matches") breadcrumbs
        (Hft_obs.Registry.count "hft.robust.degraded"))
    [ 2; 4 ]

let () =
  Alcotest.run "hft_par"
    [
      ( "par",
        [
          Alcotest.test_case "knobs" `Quick test_knobs;
          Alcotest.test_case "obs hammer" `Quick test_obs_hammer;
          Alcotest.test_case "seq differential" `Quick test_seq_differential;
          Alcotest.test_case "full-scan differential" `Quick
            test_full_scan_differential;
          Alcotest.test_case "shard chaos" `Quick test_shard_chaos;
          Alcotest.test_case "nested shard+podem chaos" `Quick
            test_nested_shard_podem_chaos;
          Alcotest.test_case "stats conservation" `Quick
            test_stats_conservation;
          Alcotest.test_case "full-scan stats" `Quick test_full_scan_stats;
          Alcotest.test_case "stats observational" `Quick
            test_stats_observational;
          Alcotest.test_case "campaign jobs" `Quick test_campaign_jobs;
          Alcotest.test_case "driver synthetic" `Quick test_driver_synthetic;
        ] );
    ]
