(* Campaign benchmark program.

   Runs real-knob gate-level test campaigns (width 8, backtrack limit
   50, 3 time frames, guided PODEM, 64 fill patterns — the knobs of
   [hft atpg]) on one of the workloads below and prints one JSON object
   as its last stdout line:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   [--trace 0] reports the end-to-end metrics, measured with
   observability off.  [--trace 1] reports the per-layer split: it
   re-builds each campaign from the public calls [Flow.test_campaign]
   makes, times every call from here, and reads the engines' own
   registry counters — nothing inside the libraries is instrumented
   for the benchmark.  Timed campaigns run at -j1; a workload marked
   [w_par] is also composed at -j2 in traced runs, for the [Hft_par]
   layer.

   A run covers two fault samples, [Flow.test_campaign ~seed ~sample]:
   a fixed core sample (seed 2024, the seed [hft atpg] uses) and a
   smaller sample of seed [--seed].  Per-fault search cost is
   heavy-tailed, so two independent small samples can differ twofold in
   campaign time; the fixed core keeps the figures comparable across
   seeds while every seed still brings fresh faults.  Every (cell,
   sample) pair is one attempted unit; it fails when the campaign
   raises or when the correctness gate (run after the timed region)
   rejects it. *)

open Hft_core
module G = Hft_gate
module Obs = Hft_obs

let width = 8
let backtrack_limit = 50
let max_frames = 3
let n_patterns = 64

type cell = { bench : string; flow : Flow.flow_kind }

type workload = {
  w_cells : cell list;
  w_sample : int;  (** keep one fault in [w_sample] *)
  w_fresh : int;  (** the [--seed] sample keeps one fault in [w_fresh] *)
  w_par : bool;
      (** traced runs also compose every unit at -j2, for the [Hft_par]
          layer *)
}

let scan_cells =
  [ { bench = "fir8"; flow = Flow.Partial_scan };
    { bench = "tseng"; flow = Flow.Partial_scan } ]

(* Samples are large enough that fixed per-campaign costs (the guidance
   analyses of each unrolled netlist) do not hide the layer mix of
   unsampled campaigns; perfbench/README.md gives the measured shares. *)
let workloads =
  [ ("scan-drop", { w_cells = scan_cells; w_sample = 6; w_fresh = 24; w_par = true });
    ( "noscan-search",
      { w_cells =
          [ { bench = "diffeq"; flow = Flow.Conventional };
            { bench = "ar_lattice"; flow = Flow.Conventional } ];
        w_sample = 50; w_fresh = 1600; w_par = false } );
    (* Tiny cell for the benchmark's own self-test; not a workload. *)
    ( "selftest",
      { w_cells = [ { bench = "tseng"; flow = Flow.Partial_scan } ];
        w_sample = 50; w_fresh = 50; w_par = true } ) ]

let now = Unix.gettimeofday

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  scan ()

(* ------------------------------------------------------------------ *)
(* Result fingerprint: what must agree between the timed campaign, the *)
(* traced composition and the -j1 / -j2 runs.                           *)

type fingerprint = {
  f_stats : G.Seq_atpg.stats;
  f_detected : G.Fault.t list;
  f_undetected : G.Fault.t list;
  f_patterns : int;
  f_rows : int;
}

let fingerprint stats (fr : G.Fsim.comb_result) rows =
  {
    f_stats = stats;
    f_detected = List.sort compare fr.detected;
    f_undetected = List.sort compare fr.undetected;
    f_patterns = fr.n_patterns;
    f_rows = rows;
  }

let cold_start () =
  Hft_analysis.Guidance.reset_cache ();
  Obs.reset ();
  Obs.enabled := false;
  Gc.compact ()

(* Cold start, then time one [Flow.test_campaign] call. *)
let timed_campaign ~sample ~seed r =
  cold_start ();
  let t0 = now () in
  let c =
    Flow.test_campaign ~backtrack_limit ~max_frames ~sample ~seed ~n_patterns
      ~guided:true r
  in
  let dt = now () -. t0 in
  (dt, fingerprint c.Flow.c_atpg c.Flow.c_fsim c.Flow.c_patterns_stored)

(* ------------------------------------------------------------------ *)
(* Traced composition: the calls [Flow.test_campaign] makes, each      *)
(* timed from here, with observability on.                              *)

type composed = {
  k_fp : fingerprint;
  k_nl : G.Netlist.t;
  k_faults : G.Fault.t list;
  k_scanned : int list;
  k_patterns : bool array array;
  k_seq_tests : G.Seq_atpg.test list;
  k_layers : (string * float) list;  (** raw per-layer sums *)
  k_costs : int list;  (** ledger cost per class *)
}

let reg_sum name =
  match Obs.Registry.find name with Some s -> s.Obs.Metric.s_sum | None -> 0.0

let reg_count name = float_of_int (Obs.Registry.count name)

let guidance_timer = "perfbench.guidance.time"

let compose ~jobs ~sample ~seed (r : Flow.result) =
  cold_start ();
  Obs.enabled := true;
  let t_start = now () in
  let timed f =
    let t0 = now () in
    let x = f () in
    (x, now () -. t0)
  in
  let ex, expand_s = timed (fun () -> G.Expand.of_datapath r.datapath) in
  let nl = ex.G.Expand.netlist in
  let rng = Hft_util.Rng.create seed in
  let faults, collapse_s =
    timed (fun () ->
        G.Fault.collapsed nl |> List.filter (fun _ -> Hft_util.Rng.int rng sample = 0))
  in
  let scanned =
    Array.to_list r.datapath.Hft_rtl.Datapath.regs
    |> List.concat_map (fun reg ->
           if reg.Hft_rtl.Datapath.r_kind = Hft_rtl.Datapath.Scan then
             Array.to_list ex.G.Expand.reg_q.(reg.Hft_rtl.Datapath.r_id)
           else [])
  in
  let n_pi = List.length (G.Netlist.pis nl) and n_scan = List.length scanned in
  let store = Pattern_store.create () in
  let seq_tests = ref [] in
  let on_test (t : G.Seq_atpg.test) =
    let first_row = Pattern_store.size store in
    Array.iteri
      (fun i pi_vec ->
        let row = Array.make (n_pi + n_scan) false in
        Array.blit pi_vec 0 row 0 n_pi;
        if i = 0 then Array.blit t.t_scan_state 0 row n_pi n_scan;
        Pattern_store.add store row)
      t.t_pi_vectors;
    Obs.Ledger.annotate_last_test ~first_row ~n_rows:(Array.length t.t_pi_vectors);
    if t.t_frames > 1 then seq_tests := t :: !seq_tests
  in
  (* Recorded through the registry so that, at -j > 1, a worker's
     guidance time is kept only when its speculation commits — the same
     rule the engines' own PODEM and fsim series follow. *)
  let guidance nl ~observe ~faults =
    let t0 = now () in
    let g = Hft_analysis.Guidance.provide nl ~observe ~faults in
    Obs.Registry.observe guidance_timer (now () -. t0);
    g
  in
  let par = ref None in
  let podem0 = reg_sum "hft.podem.time" in
  let fsim_t0 = reg_sum "hft.fsim.time"
  and fsim_ev0 = reg_count "hft.fsim.events"
  and fsim_runs0 = reg_count "hft.fsim.runs"
  and fsim_faults0 = reg_count "hft.fsim.faults"
  and fsim_det0 = reg_count "hft.fsim.detected" in
  let stats, atpg_s =
    timed (fun () ->
        Hft_scan.Partial_scan.atpg ~backtrack_limit ~max_frames
          ~strategy:G.Seq_atpg.Drop ~on_test
          ~supervisor:(Some Hft_robust.Supervisor.default) ~guidance
          ~on_par_stats:(fun s -> par := Some s)
          ~jobs nl ~faults ~scanned)
  in
  let podem_s = reg_sum "hft.podem.time" -. podem0 in
  let drop_s = reg_sum "hft.fsim.time" -. fsim_t0
  and drop_events = reg_count "hft.fsim.events" -. fsim_ev0
  and drop_runs = reg_count "hft.fsim.runs" -. fsim_runs0
  and drop_evals = reg_count "hft.fsim.faults" -. fsim_faults0
  and drop_hits = reg_count "hft.fsim.detected" -. fsim_det0 in
  let guidance_s = reg_sum guidance_timer in
  let patterns, padded_s =
    timed (fun () ->
        Pattern_store.padded store ~rng ~n_min:n_patterns ~width:(n_pi + n_scan))
  in
  let fev0 = reg_count "hft.fsim.events" and fpat0 = reg_count "hft.fsim.patterns" in
  let fr, final_s =
    timed (fun () ->
        G.Fsim.comb_scan ~strategy:G.Fsim.Cone nl ~scanned ~patterns faults)
  in
  let final_events = reg_count "hft.fsim.events" -. fev0
  and final_patterns = reg_count "hft.fsim.patterns" -. fpat0 in
  let fr, replay_s =
    timed (fun () ->
        match (!seq_tests, fr.G.Fsim.undetected) with
        | [], _ | _, [] -> fr
        | tests, leftovers ->
          let det, undet = G.Seq_atpg.replay nl ~scanned ~tests leftovers in
          { fr with G.Fsim.detected = fr.G.Fsim.detected @ det; undetected = undet })
  in
  let wall = now () -. t_start in
  let p = match !par with Some p -> p | None -> failwith "no scheduler stats" in
  let open Hft_par.Stats in
  let workers f =
    Array.fold_left (fun a w -> a +. float_of_int (f w) /. 1e9) 0.0 p.s_workers
  in
  let layers =
    [ ("expand.s", expand_s);
      ("expand.nodes", float_of_int (G.Netlist.n_nodes nl));
      ("collapse.s", collapse_s);
      ("collapse.classes", reg_count "hft.seq_atpg.classes");
      ("guidance.s", guidance_s);
      ("guidance.calls", reg_count guidance_timer);
      ("guidance.cache_hits", reg_count "hft.analysis.cache_hits");
      ("guidance.cache_misses", reg_count "hft.analysis.cache_misses");
      ("guidance.static_untestable", reg_count "hft.analysis.static_untestable");
      ("podem.s", podem_s);
      ("podem.runs", reg_count "hft.podem.runs");
      ("podem.backtracks", reg_count "hft.podem.backtracks");
      ("podem.implications", reg_count "hft.podem.implications");
      ("podem.aborts", reg_count "hft.podem.aborts");
      ("drop_fsim.s", drop_s);
      ("drop_fsim.events", drop_events);
      ("drop_fsim.runs", drop_runs);
      ("drop_fsim.evaluations", drop_evals);
      ("drop_fsim.hits", drop_hits);
      ("drop.dropped", reg_count "hft.seq_atpg.dropped");
      ("atpg.s", atpg_s);
      ("seq_atpg.unrolls", reg_count "hft.seq_atpg.unrolls");
      ("seq_atpg.classes", reg_count "hft.seq_atpg.classes");
      ("seq_atpg.tests", float_of_int (Obs.Ledger.n_tests ()));
      ("padded.s", padded_s);
      ("final_fsim.s", final_s);
      ("final_fsim.events", final_events);
      ("final_fsim.patterns", final_patterns);
      ("replay.s", replay_s);
      ("par.busy_s", workers (fun w -> w.w_busy_ns));
      ("par.idle_s", workers (fun w -> w.w_idle_ns));
      ("par.stall_s", workers (fun w -> w.w_stall_ns));
      ("par.capacity_s",
       float_of_int (p.s_jobs * p.s_wall_ns) /. 1e9);
      ("par.tasks", float_of_int p.s_tasks);
      ("par.spec_hits", float_of_int (spec_hits p));
      ("par.steals", float_of_int (steals p));
      ("robust.degraded", reg_count "hft.robust.degraded");
      ("traced_campaign_s", wall) ]
  in
  let costs = List.map Obs.Ledger.cost (Obs.Ledger.rows ()) in
  Obs.enabled := false;
  {
    k_fp = fingerprint stats fr (Pattern_store.size store);
    k_nl = nl;
    k_faults = faults;
    k_scanned = scanned;
    k_patterns = patterns;
    k_seq_tests = !seq_tests;
    k_layers = layers;
    k_costs = costs;
  }

(* ------------------------------------------------------------------ *)
(* Correctness gate (untimed).                                          *)

let fault_set l = List.sort_uniq compare l

(* The reasons a unit fails, empty when it passes.  [k] is the unit's
   -j1 composition; [timed] the fingerprints of every other run of the
   unit (timed campaigns, traced compositions), which must equal it. *)
let gate ~tamper ~timed (k : composed) =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let fp = k.k_fp in
  let detected =
    if tamper then
      match fp.f_undetected, fp.f_detected with
      | f :: _, d -> fault_set (f :: d)
      | [], _ :: d -> d
      | [], [] -> []
    else fp.f_detected
  in
  List.iteri
    (fun i t -> if t <> fp then fail "run %d differs from the -j1 composition" i)
    timed;
  (* Every detection is re-derived by the naive (full re-simulation)
     engine on the same padded patterns; the multi-frame leftovers by
     replaying the sequential tests against what the naive pass left. *)
  let naive =
    G.Fsim.comb_scan ~strategy:G.Fsim.Naive k.k_nl ~scanned:k.k_scanned
      ~patterns:k.k_patterns k.k_faults
  in
  let seq_det =
    match k.k_seq_tests, naive.undetected with
    | [], _ | _, [] -> []
    | tests, leftovers ->
      fst (G.Seq_atpg.replay k.k_nl ~scanned:k.k_scanned ~tests leftovers)
  in
  let confirmed = fault_set (naive.detected @ seq_det) in
  if confirmed <> detected then
    fail "detected set not confirmed by the naive engines (%d reported, %d confirmed)"
      (List.length detected) (List.length confirmed);
  if fault_set (detected @ fp.f_undetected) <> fault_set k.k_faults then
    fail "detected and undetected sets do not partition the fault sample";
  let s = fp.f_stats in
  if s.detected + s.untestable + s.aborted <> s.total then
    fail "ATPG outcomes do not sum to the fault count";
  if List.assoc "robust.degraded" k.k_layers > 0.0 then
    fail "the supervisor degraded a leg";
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Run.                                                                 *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and tamper = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N fault-sample seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--tamper", Arg.Set tamper, " corrupt the detected sets (gate self-test)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let traced = !trace = 1 in
  let cells = Array.of_list w.w_cells in
  let n_cells = Array.length cells in
  (* (seed, divisor) of every fault sample in the run's pool: the core
     sample first, then the [--seed] one. *)
  let samples = [| (2024, w.w_sample); (!seed, w.w_fresh) |] in
  let pool = Array.length samples in
  (* Set-up: build every cell's CDFG and synthesize it.  Rounds run at
     start-up and again during the correctness gate, so the median
     [setup_s] samples the machine's load at both ends of the run; none
     runs among the timed campaigns, whose heap (and [peak_rss_mb]) they
     would otherwise disturb. *)
  Obs.enabled := false;
  let setup = ref [] and synth = ref [] in
  let setup_round () =
    Gc.full_major ();
    let t0 = now () in
    let graphs = List.map (fun c -> Hft_cdfg.Bench_suite.by_name c.bench) w.w_cells in
    let t1 = now () in
    let rs = List.map2 (fun c g -> Flow.synthesize ~width c.flow g) w.w_cells graphs in
    let t2 = now () in
    setup := (t2 -. t0) :: !setup;
    synth := (t2 -. t1) :: !synth;
    Array.of_list rs
  in
  let setup_rounds n = for _ = 1 to n do ignore (setup_round ()) done in
  let results = setup_round () in
  setup_rounds 10;
  (* Timed passes: every (cell, sample) unit once per pass, repeated
     until [seconds] have elapsed.  In traced mode passes alternate
     with traced compositions. *)
  let units =
    List.concat_map (fun k -> List.init n_cells (fun c -> (c, k))) (List.init pool Fun.id)
  in
  let n_units = List.length units in
  let times = Hashtbl.create 16 and fps = Hashtbl.create 16
  and comps = Hashtbl.create 16 and failed_units = Hashtbl.create 16 in
  let push tbl key v =
    Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  let fail_unit u msg =
    let c, k = u in
    Printf.printf "FAIL %s seed %d: %s\n%!" cells.(c).bench (fst samples.(k)) msg;
    Hashtbl.replace failed_units u ()
  in
  let protect u f = try f () with e -> fail_unit u (Printexc.to_string e) in
  let untraced_pass () =
    List.iter
      (fun ((c, k) as u) ->
        protect u (fun () ->
            let seed, sample = samples.(k) in
            let dt, fp = timed_campaign ~sample ~seed results.(c) in
            push times u dt;
            push fps u fp))
      units
  in
  let traced_pass ~jobs =
    List.iter
      (fun ((c, k) as u) ->
        protect u (fun () ->
            let seed, sample = samples.(k) in
            push comps (u, jobs) (compose ~jobs ~sample ~seed results.(c))))
      units
  in
  (* Untraced runs make at least two passes, so one pass caught in a
     burst of machine load cannot set a unit's time alone. *)
  let min_passes = if traced then 1 else 2 in
  let t_start = now () in
  let passes = ref 0 in
  while !passes < min_passes || now () -. t_start < !seconds do
    untraced_pass ();
    if traced then begin
      traced_pass ~jobs:1;
      if w.w_par then traced_pass ~jobs:2
    end;
    incr passes
  done;
  let peak_rss_mb = peak_rss_mb () in
  (* Correctness gate, against a -j1 composition; traced runs check
     their -j2 compositions against it too. *)
  if not traced then traced_pass ~jobs:1;
  List.iter
    (fun u ->
      setup_rounds 10;
      protect u (fun () ->
          match Hashtbl.find_opt comps (u, 1) with
          | None -> ()
          | Some l ->
            let k = List.nth l (List.length l - 1) in
            let others key = Option.value ~default:[] (Hashtbl.find_opt comps key) in
            let timed =
              Option.value ~default:[] (Hashtbl.find_opt fps u)
              @ List.map (fun k -> k.k_fp) (others (u, 1) @ others (u, 2))
            in
            (match gate ~tamper:!tamper ~timed k with
             | [] -> ()
             | errs -> List.iter (fail_unit u) errs)))
    units;
  let n_failed = Hashtbl.length failed_units in
  let ok u = not (Hashtbl.mem failed_units u) in
  let metrics = ref [] in
  let metric name unit v = metrics := (name, unit, v) :: !metrics in
  let unit_times u = Option.value ~default:[] (Hashtbl.find_opt times u) in
  let unit_s u = median (unit_times u) in
  let campaign_s = sum (List.map unit_s (List.filter ok units)) in
  List.iter
    (fun ((c, k) as u) ->
      Printf.printf "unit %-10s seed %-7d 1/%-4d campaign_s %s\n" cells.(c).bench
        (fst samples.(k)) (snd samples.(k))
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") (unit_times u))))
    units;
  let gate_comp u =
    match Hashtbl.find_opt comps (u, 1) with
    | Some (k :: _) -> Some k
    | _ -> None
  in
  (* Exact figures cover the fixed core samples only, so they read the
     same for every seed and any change in them is the program's. *)
  let core_comps =
    List.filter_map
      (fun ((_, k) as u) -> if k = 0 && ok u then gate_comp u else None)
      units
  in
  let total f = List.fold_left (fun a k -> a + f k) 0 core_comps in
  if not traced then begin
    (* Throughput over the core samples: a fixed amount of work, so the
       figure moves only with the program's speed. *)
    let core_s =
      sum (List.map unit_s (List.filter (fun ((_, k) as u) -> k = 0 && ok u) units))
    in
    let classes =
      List.fold_left (fun a k -> a +. List.assoc "seq_atpg.classes" k.k_layers) 0.0 core_comps
    in
    let detected = total (fun k -> List.length k.k_fp.f_detected)
    and faults = total (fun k -> List.length k.k_faults) in
    metric "campaign_s" "s" campaign_s;
    metric "classes_per_s" "1/s" (classes /. core_s);
    metric "setup_s" "s" (median !setup);
    metric "peak_rss_mb" "MB" peak_rss_mb;
    metric "fsim_coverage" "ratio" (float_of_int detected /. float_of_int (max 1 faults));
    metric "atpg_aborted" "count" (float_of_int (total (fun k -> k.k_fp.f_stats.aborted)));
    metric "test_rows" "count" (float_of_int (total (fun k -> k.k_fp.f_rows)));
    metric "passed_share" "ratio"
      (float_of_int (n_units - n_failed) /. float_of_int n_units)
  end
  else begin
    (* Per unit: median of each raw layer figure over the traced
       passes at [jobs]; then summed over the units.  Every layer but
       Hft_par is read at -j1. *)
    let at jobs name =
      List.fold_left
        (fun a u ->
          match Hashtbl.find_opt comps (u, jobs) with
          | Some l when ok u -> a +. median (List.map (fun k -> List.assoc name k.k_layers) l)
          | _ -> a)
        0.0 units
    in
    let v = at 1 and par = at (if w.w_par then 2 else 1) in
    let ratio a b = if b > 0.0 then a /. b else 0.0 in
    let sec n = metric n "s" (v n) and cnt n = metric n "count" (v n) in
    metric "synth.s" "s" (median !synth);
    sec "expand.s"; cnt "expand.nodes"; sec "collapse.s"; cnt "collapse.classes";
    sec "guidance.s"; cnt "guidance.calls";
    metric "guidance.cache_hit_ratio" "ratio"
      (ratio (v "guidance.cache_hits") (v "guidance.cache_hits" +. v "guidance.cache_misses"));
    cnt "guidance.static_untestable";
    sec "podem.s"; cnt "podem.runs"; cnt "podem.backtracks"; cnt "podem.implications";
    cnt "podem.aborts";
    metric "podem.success_ratio" "ratio" (1.0 -. ratio (v "podem.aborts") (v "podem.runs"));
    sec "drop_fsim.s"; cnt "drop_fsim.events"; cnt "drop_fsim.runs"; cnt "drop.dropped";
    metric "drop.hit_ratio" "ratio" (ratio (v "drop_fsim.hits") (v "drop_fsim.evaluations"));
    metric "seq_atpg.other_s" "s"
      (v "atpg.s" -. v "podem.s" -. v "drop_fsim.s" -. v "guidance.s");
    cnt "seq_atpg.unrolls"; cnt "seq_atpg.classes"; cnt "seq_atpg.tests";
    sec "final_fsim.s"; cnt "final_fsim.events"; cnt "final_fsim.patterns"; sec "replay.s";
    metric "par.utilization" "ratio" (ratio (par "par.busy_s") (par "par.capacity_s"));
    List.iter (fun n -> metric n "s" (par n)) [ "par.busy_s"; "par.idle_s"; "par.stall_s" ];
    metric "par.spec_hit_ratio" "ratio" (ratio (par "par.spec_hits") (par "par.tasks"));
    metric "par.steals" "count" (par "par.steals");
    (* -j1 over -j2 ATPG wall, both traced, in this process: above 1
       when sharding pays. *)
    metric "par.speedup" "ratio" (ratio (v "atpg.s") (par "atpg.s"));
    let costs = List.concat_map (fun u ->
        match Hashtbl.find_opt comps (u, 1) with
        | Some (k :: _) when ok u -> k.k_costs
        | _ -> []) units
      |> Array.of_list
    in
    Array.sort compare costs;
    let pct q =
      let n = Array.length costs in
      if n = 0 then 0.0
      else float_of_int costs.(min (n - 1) (int_of_float (q *. float_of_int n)))
    in
    metric "class_cost.p50" "count" (pct 0.5);
    metric "class_cost.p99" "count" (pct 0.99);
    let traced_s = v "traced_campaign_s" in
    metric "traced_campaign_s" "s" traced_s;
    let attributed =
      List.fold_left (fun a n -> a +. v n) 0.0
        [ "expand.s"; "collapse.s"; "guidance.s"; "podem.s"; "drop_fsim.s";
          "padded.s"; "final_fsim.s"; "replay.s" ]
      /. traced_s
    in
    metric "attributed_share" "ratio" attributed;
    if attributed < 0.95 then
      Printf.printf "FLAG attributed_share %.3f is below the 0.95 target\n" attributed;
    metric "trace_overhead_share" "ratio" ((traced_s -. campaign_s) /. campaign_s)
  end;
  let json_metrics =
    List.rev_map
      (fun (n, u, v) ->
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (n_failed = 0) n_units n_failed (String.concat ", " json_metrics)
