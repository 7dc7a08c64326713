open Hft_cdfg
open Hft_rtl

type dft_report = {
  flow : string;
  n_registers : int;
  n_scan_registers : int;
  n_test_registers : int;
  n_cbilbo : int;
  datapath_loops : int;
  self_loops : int;
  sequential_depth : int option;
  area_overhead : float;
  test_sessions : int;
}

type result = {
  graph : Graph.t;
  sched : Schedule.t;
  binding : Hft_hls.Fu_bind.t;
  alloc : Hft_hls.Reg_alloc.t;
  datapath : Datapath.t;
  report : dft_report;
}

let default_resources =
  [ (Op.Multiplier, 2); (Op.Alu, 2); (Op.Comparator, 1); (Op.Logic_unit, 1) ]

let count_kind d k =
  Array.fold_left
    (fun acc r -> if r.Datapath.r_kind = k then acc + 1 else acc)
    0 d.Datapath.regs

let measure ~flow ~base_area d ~sessions =
  let s = Sgraph.of_datapath d in
  let scanned =
    Array.to_list d.Datapath.regs
    |> List.filter_map (fun r ->
           match r.Datapath.r_kind with
           | Datapath.Scan | Datapath.Transparent_scan -> Some r.Datapath.r_id
           | Datapath.Plain | Datapath.Tpgr | Datapath.Sr | Datapath.Bilbo
           | Datapath.Cbilbo -> None)
  in
  let g' = Hft_util.Digraph.copy s.Sgraph.graph in
  List.iter (fun r -> Hft_util.Digraph.detach g' r) scanned;
  let remaining = { s with Sgraph.graph = g' } in
  {
    flow;
    n_registers = Datapath.n_regs d;
    n_scan_registers = List.length scanned;
    n_test_registers =
      count_kind d Datapath.Tpgr + count_kind d Datapath.Sr
      + count_kind d Datapath.Bilbo + count_kind d Datapath.Cbilbo;
    n_cbilbo = count_kind d Datapath.Cbilbo;
    datapath_loops = List.length (Sgraph.nontrivial_loops remaining);
    self_loops = List.length (Sgraph.self_loop_regs remaining);
    sequential_depth = Sgraph.sequential_depth s ~scanned;
    area_overhead =
      (if base_area <= 0.0 then 0.0
       else (Area.datapath_area d -. base_area) /. base_area);
    test_sessions = sessions;
  }

(* Every flow runs under one root span with a child span per phase, so
   [--trace] shows where a synthesis run spends its time; the per-flow
   total also feeds the [hft.flow.time] timer. *)
let span = Hft_obs.Span.with_

(* Out-of-range knobs are input errors (exit 2 in the CLI), not engine
   crashes deep inside data-path generation or fault sampling. *)
let check_positive ~site ~hint name v =
  if v < 1 then
    Hft_robust.Validation.fail ~site ~hint
      (Printf.sprintf "%s must be >= 1, got %d" name v)

let flow_root ~width name g f =
  check_positive ~site:"flow.synthesize" ~hint:"pass --width 1 or more"
    "width" width;
  Hft_obs.Registry.time "hft.flow.time" @@ fun () ->
  span ("flow:" ^ name)
    ~attrs:[ ("ops", string_of_int (Hft_cdfg.Graph.n_ops g)) ]
    (fun () ->
      Hft_obs.Registry.incr "hft.flow.runs";
      f ())

let synthesize_conventional ?(width = 8) ?(resources = default_resources) g =
  flow_root ~width "conventional" g @@ fun () ->
  let latency = Hft_hls.Sched_algos.latencies g in
  let sched =
    span "schedule" (fun () -> Hft_hls.List_sched.schedule ~latency g ~resources)
  in
  let binding =
    span "fu-bind" (fun () -> Hft_hls.Fu_bind.left_edge ~resources g sched)
  in
  let info = span "lifetime" (fun () -> Lifetime.compute g sched) in
  let alloc = span "reg-alloc" (fun () -> Hft_hls.Reg_alloc.left_edge g info) in
  let datapath =
    span "datapath-gen" (fun () ->
        Hft_hls.Datapath_gen.generate ~width g sched binding alloc)
  in
  let base = Area.datapath_area datapath in
  let report =
    span "measure" (fun () ->
        measure ~flow:"conventional" ~base_area:base datapath ~sessions:0)
  in
  { graph = g; sched; binding; alloc; datapath; report }

let synthesize_for_partial_scan ?(width = 8) ?(resources = default_resources) g =
  flow_root ~width "partial-scan" g @@ fun () ->
  let base =
    span "baseline" (fun () -> (synthesize_conventional ~width ~resources g).datapath)
  in
  let base_area = Area.datapath_area base in
  (* Loop-aware scheduling+binding, scan variables from the CDFG. *)
  let ssa =
    span "sched-assign" (fun () -> Sim_sched_assign.run ~resources g None)
  in
  let sched = ssa.Sim_sched_assign.sched in
  let binding = ssa.Sim_sched_assign.binding in
  let info = span "lifetime" (fun () -> Lifetime.compute g sched) in
  let sel =
    span "scan-select" (fun () -> Scan_vars.select_effective g sched)
  in
  (* Scan variables should share scan registers: colour them first,
     preferring to join an existing scan register. *)
  let scan_set = sel.Scan_vars.scan_vars in
  let alloc =
    span "reg-alloc" (fun () -> Hft_hls.Reg_alloc.color ~order:scan_set g info)
  in
  let datapath =
    span "datapath-gen" (fun () ->
        Hft_hls.Datapath_gen.generate ~width g sched binding alloc)
  in
  (* Annotate scan registers: those holding a scan variable, plus any
     further registers needed to break residual assignment loops. *)
  let all_scan =
    span "scan-annotate" @@ fun () ->
    let scan_regs =
      List.filter_map (fun v ->
          let r = alloc.Hft_hls.Reg_alloc.reg_of_var.(v) in
          if r >= 0 then Some r else None)
        scan_set
      |> List.sort_uniq compare
    in
    let s = Sgraph.of_datapath datapath in
    let residual =
      let g' = Hft_util.Digraph.copy s.Sgraph.graph in
      List.iter (fun r -> Hft_util.Digraph.detach g' r) scan_regs;
      Hft_util.Mfvs.greedy ~ignore_self_loops:true g'
    in
    List.sort_uniq compare (scan_regs @ residual)
  in
  List.iter
    (fun r -> datapath.Datapath.regs.(r).Datapath.r_kind <- Datapath.Scan)
    all_scan;
  Hft_obs.Registry.incr "hft.scan.regs_selected" ~by:(List.length all_scan);
  Hft_obs.Span.add_attr_int "scan-regs" (List.length all_scan);
  let report =
    span "measure" (fun () ->
        measure ~flow:"partial-scan" ~base_area datapath ~sessions:0)
  in
  { graph = g; sched; binding; alloc; datapath; report }

let synthesize_for_bist ?(width = 8) ?(resources = default_resources) g =
  flow_root ~width "bist" g @@ fun () ->
  let base =
    span "baseline" (fun () -> (synthesize_conventional ~width ~resources g).datapath)
  in
  let base_area = Area.datapath_area base in
  let latency = Hft_hls.Sched_algos.latencies g in
  let sched =
    span "schedule" (fun () -> Hft_hls.List_sched.schedule ~latency g ~resources)
  in
  let binding =
    span "fu-bind" (fun () -> Hft_hls.Fu_bind.left_edge ~resources g sched)
  in
  let info = span "lifetime" (fun () -> Lifetime.compute g sched) in
  let alloc =
    span "bist-reg-assign" (fun () ->
        Hft_bist.Reg_assign.bist_aware g sched binding info)
  in
  let datapath =
    span "datapath-gen" (fun () ->
        Hft_hls.Datapath_gen.generate ~width g sched binding alloc)
  in
  let plan, sessions =
    span "bilbo-plan" @@ fun () ->
    let plan = Hft_bist.Bilbo.plan datapath in
    Hft_bist.Bilbo.annotate datapath plan;
    let sessions = Hft_bist.Session.count datapath plan in
    Hft_obs.Registry.incr "hft.bist.sessions" ~by:sessions;
    Hft_obs.Span.add_attr_int "sessions" sessions;
    (plan, sessions)
  in
  ignore plan;
  let report =
    span "measure" (fun () -> measure ~flow:"bist" ~base_area datapath ~sessions)
  in
  { graph = g; sched; binding; alloc; datapath; report }

type flow_kind = Conventional | Partial_scan | Bist

let flow_kinds =
  [ ("conventional", Conventional); ("partial-scan", Partial_scan);
    ("bist", Bist) ]

let flow_kind_to_string k =
  fst (List.find (fun (_, k') -> k' = k) flow_kinds)

let flow_kind_of_string s = List.assoc_opt s flow_kinds

let synthesize ?width ?resources kind g =
  match kind with
  | Conventional -> synthesize_conventional ?width ?resources g
  | Partial_scan -> synthesize_for_partial_scan ?width ?resources g
  | Bist -> synthesize_for_bist ?width ?resources g

(* ------------------------------------------------------------------ *)
(* Gate-level test campaign: the uniform "expand, sample faults, ATPG,
   final coverage fault simulation" sequence the CLI bench and atpg
   commands share.                                                     *)

type atpg_strategy = Fast | Naive

type campaign = {
  c_netlist : Hft_gate.Netlist.t;
  c_faults : Hft_gate.Fault.t list;
  c_scanned : int list;
  c_atpg : Hft_gate.Seq_atpg.stats;
  c_fsim : Hft_gate.Fsim.comb_result;
  c_patterns_stored : int;
  c_resumed_classes : int;
  c_resumed_tests : int;
  c_t_atpg : float;
  c_t_fsim : float;
  c_par : Hft_par.Stats.t;
}

let test_campaign ?(strategy = Fast) ?(backtrack_limit = 20) ?(max_frames = 2)
    ?(sample = 20) ?(seed = 2024) ?(n_patterns = 64)
    ?(supervisor = Some Hft_robust.Supervisor.default) ?checkpoint
    ?(resume = false) ?(guided = true) ?jobs ?campaign r =
  span "test-campaign" @@ fun () ->
  if checkpoint <> None && not !Hft_obs.Config.enabled then
    Hft_robust.Validation.fail ~site:"flow.test_campaign"
      ~hint:"enable observability (the CLI does this for --checkpoint)"
      "checkpointing needs the fault ledger";
  if checkpoint <> None && strategy = Naive then
    Hft_robust.Validation.fail ~site:"flow.test_campaign"
      ~hint:"drop --naive or drop --checkpoint"
      "checkpointing needs the fast strategy";
  check_positive ~site:"flow.test_campaign" ~hint:"pass --sample 1 or more"
    "sample" sample;
  let ex = Hft_gate.Expand.of_datapath r.datapath in
  let nl = ex.Hft_gate.Expand.netlist in
  let rng = Hft_util.Rng.create seed in
  let faults =
    Hft_gate.Fault.collapsed nl
    |> List.filter (fun _ -> Hft_util.Rng.int rng sample = 0)
  in
  let scanned =
    Array.to_list r.datapath.Datapath.regs
    |> List.concat_map (fun reg ->
           if reg.Datapath.r_kind = Datapath.Scan then
             Array.to_list ex.Hft_gate.Expand.reg_q.(reg.Datapath.r_id)
           else [])
  in
  let n_pi = List.length (Hft_gate.Netlist.pis nl) in
  let n_scan = List.length scanned in
  (* Live telemetry bracket: a campaign_started event now, the final
     snapshot just before we return.  No-ops unless the CLI started a
     progress stream (--progress-out). *)
  Hft_obs.Progress.campaign_begin
    ~label:(match campaign with Some c -> c | None -> r.report.flow)
    ~faults:(List.length faults);
  (* Checkpoint fingerprint: everything that shapes the fault sample,
     the search and the pattern layout.  A resume against a checkpoint
     written under different knobs would silently diverge, so any
     mismatch is an input error. *)
  let netlist_hash =
    (* Structural identity: two circuits with the same shape knobs and
       fault count (e.g. a design and its one-gate-off revision) must
       still refuse to resume each other's checkpoints. *)
    let h = ref 0 in
    let mix v = h := ((!h * 1000003) lxor v) land max_int in
    for v = 0 to Hft_gate.Netlist.n_nodes nl - 1 do
      mix (Hashtbl.hash (Hft_gate.Netlist.kind nl v));
      Array.iter mix (Hft_gate.Netlist.fanin nl v)
    done;
    !h land 0x3FFFFFFF
  in
  let meta =
    let open Hft_util.Json in
    [ ("flow", String r.report.flow);
      ("netlist", Int netlist_hash);
      ("strategy",
       String (match strategy with Fast -> "fast" | Naive -> "naive"));
      ("backtrack_limit", Int backtrack_limit);
      ("max_frames", Int max_frames);
      ("sample", Int sample);
      ("seed", Int seed);
      ("n_patterns", Int n_patterns);
      ("n_faults", Int (List.length faults));
      ("n_pi", Int n_pi);
      ("n_scan", Int n_scan);
      ("guided", Bool (guided && strategy = Fast)) ]
  in
  let restored =
    match checkpoint with
    | Some path when resume && Sys.file_exists path ->
      (match Hft_robust.Checkpoint.load ~path with
       | Error msg ->
         Hft_robust.Validation.fail ~site:"flow.checkpoint"
           ~hint:"delete the file to start a fresh campaign"
           (Printf.sprintf "cannot load %s: %s" path msg)
       | Ok ck ->
         List.iter
           (fun (k, v) ->
             match List.assoc_opt k ck.Hft_robust.Checkpoint.meta with
             | Some v' when v' = v -> ()
             | Some v' ->
               Hft_robust.Validation.fail ~site:"flow.checkpoint"
                 ~hint:"rerun with the original options, or delete the file"
                 (Printf.sprintf "%s fingerprint mismatch: checkpoint %s, run %s"
                    k
                    (Hft_util.Json.to_string v')
                    (Hft_util.Json.to_string v))
             | None ->
               Hft_robust.Validation.fail ~site:"flow.checkpoint"
                 ~hint:"the file predates this campaign's fingerprint"
                 (Printf.sprintf "checkpoint meta lacks %S" k))
           meta;
         Some ck)
    | _ -> None
  in
  let writer =
    match checkpoint with
    | None -> None
    | Some path ->
      let w = Hft_robust.Checkpoint.create ~path ~meta in
      (* Resume rewrites the repaired state in place: a torn tail must
         not survive on disk, or its lines would double once the engine
         regenerates the rolled-back transaction. *)
      (match restored with
       | None -> ()
       | Some ck ->
         List.iter
           (fun t -> Hft_robust.Checkpoint.append_test w t)
           ck.Hft_robust.Checkpoint.tests;
         List.iter
           (fun (c : Hft_robust.Checkpoint.cls) ->
             Hft_robust.Checkpoint.append_class w ~rep:c.ck_rep
               c.ck_resolution)
           ck.Hft_robust.Checkpoint.classes);
      Some w
  in
  Fun.protect
    ~finally:(fun () ->
      match writer with
      | Some w -> Hft_robust.Checkpoint.close w
      | None -> ())
  @@ fun () ->
  let store = Pattern_store.create () in
  let seq_tests = ref [] in
  let store_test (t : Hft_gate.Seq_atpg.test) =
    (* One store row per time frame, columns = PIs then scan loads.
       Only frame 0 carries a real scan load; later frames' rows are
       still deterministic, fault-targeting stimuli and get a zero scan
       fill. *)
    let first_row = Pattern_store.size store in
    Array.iteri
      (fun i pi_vec ->
        let row = Array.make (n_pi + n_scan) false in
        Array.blit pi_vec 0 row 0 n_pi;
        if i = 0 then Array.blit t.Hft_gate.Seq_atpg.t_scan_state 0 row n_pi n_scan;
        Pattern_store.add store row)
      t.Hft_gate.Seq_atpg.t_pi_vectors;
    (* The ATPG registered this test in the ledger just before calling
       us (synchronously), so "last test" is the right one to annotate
       with its pattern-store rows. *)
    Hft_obs.Ledger.annotate_last_test ~first_row
      ~n_rows:(Array.length t.Hft_gate.Seq_atpg.t_pi_vectors);
    (* Multi-frame tests detect through unscanned state, which a single
       combinational pass cannot reproduce — keep them for a sequential
       (unrolled) replay. *)
    if t.Hft_gate.Seq_atpg.t_frames > 1 then seq_tests := t :: !seq_tests
  in
  (* The engine appends the test line before any class line resolves to
     it ({!Hft_robust.Checkpoint} transaction ordering), so on_test
     serializes first, then feeds the store. *)
  let on_test (t : Hft_gate.Seq_atpg.test) =
    (match writer with
     | None -> ()
     | Some w ->
       Hft_robust.Checkpoint.append_test w
         {
           Hft_robust.Checkpoint.ck_frames = t.Hft_gate.Seq_atpg.t_frames;
           ck_vectors = t.Hft_gate.Seq_atpg.t_pi_vectors;
           ck_scan = t.Hft_gate.Seq_atpg.t_scan_state;
           ck_detects =
             List.map
               (fun (f : Hft_gate.Fault.t) -> (f.node, f.pin, f.stuck))
               t.Hft_gate.Seq_atpg.t_detects;
         });
    store_test t
  in
  (* Resume: replay the checkpointed tests through the same store path
     (ledger test ids realign with checkpoint order) and hand the ATPG a
     rep -> resolution lookup so restored classes are never re-run. *)
  let resumed_tests =
    match restored with
    | None -> 0
    | Some ck ->
      List.iter
        (fun (t : Hft_robust.Checkpoint.test) ->
          ignore (Hft_obs.Ledger.register_test ~frames:t.ck_frames : int);
          store_test
            {
              Hft_gate.Seq_atpg.t_frames = t.ck_frames;
              t_pi_vectors = t.ck_vectors;
              t_scan_state = t.ck_scan;
              t_detects =
                List.map
                  (fun (node, pin, stuck) ->
                    { Hft_gate.Fault.node; pin; stuck })
                  t.ck_detects;
            })
        ck.Hft_robust.Checkpoint.tests;
      List.length ck.Hft_robust.Checkpoint.tests
  in
  let resumed_classes = ref 0 in
  let resolved =
    match restored with
    | None -> None
    | Some ck ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun (c : Hft_robust.Checkpoint.cls) ->
          Hashtbl.replace tbl c.ck_rep c.ck_resolution)
        ck.Hft_robust.Checkpoint.classes;
      Some
        (fun rep ->
          match Hashtbl.find_opt tbl rep with
          | Some res ->
            incr resumed_classes;
            Some res
          | None -> None)
  in
  let on_resolved =
    match writer with
    | None -> None
    | Some w -> Some (fun ~rep res -> Hft_robust.Checkpoint.append_class w ~rep res)
  in
  let t0 = Hft_obs.Clock.now () in
  let par_stats = ref None in
  let on_par_stats s = par_stats := Some s in
  let stats =
    match strategy with
    | Fast ->
      (* Static-analysis guidance rides only the fast strategy: the
         naive flow is the historical baseline and stays bit-identical
         regardless of [guided]. *)
      let guidance =
        if guided then Some Hft_analysis.Guidance.provide else None
      in
      Hft_scan.Partial_scan.atpg ~backtrack_limit ~max_frames
        ~strategy:Hft_gate.Seq_atpg.Drop ~on_test ~supervisor ?resolved
        ?on_resolved ?guidance ~on_par_stats ?jobs nl ~faults ~scanned
    | Naive ->
      Hft_scan.Partial_scan.atpg ~backtrack_limit ~max_frames
        ~strategy:Hft_gate.Seq_atpg.Naive ~supervisor ~on_par_stats ?jobs nl
        ~faults ~scanned
  in
  let t_atpg = Hft_obs.Clock.now () -. t0 in
  (* The engine always reports (a degenerate sequential summary at
     jobs = 1), so every campaign record carries utilization. *)
  let par = Option.get !par_stats in
  (* Publish the scheduler telemetry: counters and gauges into the
     registry (the hft.par series), one Shard_stats event onto the
     journal, and
     the summary onto the progress stream so the final snapshot's
     ["parallel"] object carries it.  All three are jobs-dependent by
     nature, so none participate in the engine bit-identity surfaces —
     the journal event in particular is recorded only here, never by
     the engines, so committed tapes stay identical across jobs. *)
  let open Hft_par.Stats in
  Hft_obs.Registry.incr "hft.par.tasks" ~by:par.s_tasks;
  Hft_obs.Registry.incr "hft.par.waves" ~by:par.s_waves;
  Hft_obs.Registry.incr "hft.par.steals" ~by:(steals par);
  Hft_obs.Registry.incr "hft.par.spec_hits" ~by:(spec_hits par);
  Hft_obs.Registry.incr "hft.par.spec_misses" ~by:(spec_misses par);
  Hft_obs.Registry.incr "hft.par.inline_recomputes" ~by:(inline par);
  Hft_obs.Registry.set "hft.par.jobs" (float_of_int par.s_jobs);
  Hft_obs.Registry.set "hft.par.utilization" (utilization par);
  Hft_obs.Registry.set "hft.par.occupancy" (occupancy par);
  Array.iter
    (fun w ->
      Hft_obs.Registry.observe "hft.par.worker_busy_s"
        (float_of_int w.w_busy_ns /. 1e9))
    par.s_workers;
  Hft_obs.Journal.record
    (Hft_obs.Journal.Shard_stats
       {
         jobs = par.s_jobs;
         waves = par.s_waves;
         tasks = par.s_tasks;
         steals = steals par;
         spec_hits = spec_hits par;
         spec_misses = spec_misses par;
         inline = inline par;
         utilization = utilization par;
       });
  Hft_obs.Progress.set_parallel (Some (to_json par));
  (* Final coverage fault simulation.  Fast: replay the ATPG-derived
     patterns (plus random fill) through the scan view — the scan cells
     are pattern-loaded pseudo PIs and their D inputs observed — so
     faults the campaign proved detectable show up as detected here.
     Naive: the historical pure-random, non-scan simulation (DFF state
     stuck at 0), kept for comparison. *)
  let t1 = Hft_obs.Clock.now () in
  (* Final-coverage degrade chain (supervised runs only): cone-limited
     pass, then a naive (full-resimulation) retry, then an empty result
     — a broken measurement never sinks the campaign.  A failed
     multi-frame replay keeps the combinational result. *)
  let degraded action =
    Hft_obs.Journal.record (Hft_obs.Journal.Degraded { site = "fsim"; action });
    Hft_obs.Registry.incr "hft.robust.degraded"
  in
  let protected_fsim ~primary ~fallback f =
    match supervisor with
    | None -> f primary
    | Some _ ->
      (match
         Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim (fun () ->
             f primary)
       with
       | Ok fr -> fr
       | Error _ when primary = Hft_gate.Fsim.Cone ->
         degraded "final-fsim-naive-retry";
         (match
            Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim
              (fun () -> f Hft_gate.Fsim.Naive)
          with
          | Ok fr -> fr
          | Error _ ->
            degraded "final-fsim-empty";
            fallback ())
       | Error _ ->
         degraded "final-fsim-empty";
         fallback ())
  in
  let fr =
    match strategy with
    | Fast ->
      let patterns =
        Pattern_store.padded store ~rng ~n_min:n_patterns
          ~width:(n_pi + n_scan)
      in
      let fr =
        protected_fsim ~primary:Hft_gate.Fsim.Cone
          ~fallback:(fun () ->
            { Hft_gate.Fsim.detected = []; undetected = faults;
              n_patterns = Array.length patterns })
          (fun strategy ->
            Hft_gate.Fsim.comb_scan ~strategy nl ~scanned ~patterns faults)
      in
      (* Faults only the multi-frame tests reach: replay those tests on
         the unrolled circuit against the leftovers and merge. *)
      (match (!seq_tests, fr.Hft_gate.Fsim.undetected) with
       | [], _ | _, [] -> fr
       | tests, leftovers ->
         let replay_leg () =
           Hft_gate.Seq_atpg.replay nl ~scanned ~tests leftovers
         in
         let merge (det, undet) =
           {
             fr with
             Hft_gate.Fsim.detected = fr.Hft_gate.Fsim.detected @ det;
             undetected = undet;
           }
         in
         (match supervisor with
          | None -> merge (replay_leg ())
          | Some _ ->
            (match
               Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim
                 replay_leg
             with
             | Ok r -> merge r
             | Error _ ->
               degraded "seq-replay-skipped";
               fr)))
    | Naive ->
      protected_fsim ~primary:Hft_gate.Fsim.Naive
        ~fallback:(fun () ->
          { Hft_gate.Fsim.detected = []; undetected = faults; n_patterns })
        (fun strategy ->
          Hft_gate.Fsim.comb_random ~strategy nl ~rng ~n_patterns faults)
  in
  let t_fsim = Hft_obs.Clock.now () -. t1 in
  Hft_obs.Progress.campaign_end ();
  {
    c_netlist = nl;
    c_faults = faults;
    c_scanned = scanned;
    c_atpg = stats;
    c_fsim = fr;
    c_patterns_stored = Pattern_store.size store;
    c_resumed_classes = !resumed_classes;
    c_resumed_tests = resumed_tests;
    c_t_atpg = t_atpg;
    c_t_fsim = t_fsim;
    c_par = par;
  }

let report_header =
  [ "flow"; "regs"; "scan"; "test-regs"; "cbilbo"; "loops"; "self-loops";
    "depth"; "area-ovh"; "sessions" ]

let report_row r =
  [
    r.flow;
    string_of_int r.n_registers;
    string_of_int r.n_scan_registers;
    string_of_int r.n_test_registers;
    string_of_int r.n_cbilbo;
    string_of_int r.datapath_loops;
    string_of_int r.self_loops;
    (match r.sequential_depth with None -> "inf" | Some d -> string_of_int d);
    Hft_util.Pretty.pct r.area_overhead;
    string_of_int r.test_sessions;
  ]
