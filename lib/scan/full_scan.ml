open Hft_gate

type result = {
  chain : Chain.t;
  tests : (int * bool) list list;
  stats : Atpg_stats.t;
}

(* Full scan makes every DFF a pseudo primary input (scan load) and its
   D input a pseudo primary output (scan capture), so ATPG and fault
   dropping are purely combinational.  With every source concretely
   assigned (PODEM's X positions filled with 0), a two-valued detection
   check is exact — no three-valued confirmation needed, unlike the
   sequential case in {!Hft_gate.Seq_atpg}. *)
let atpg ?(backtrack_limit = 500) ?(strategy = Seq_atpg.Drop)
    ?(supervisor = Some Hft_robust.Supervisor.default) ?guidance
    ?on_par_stats ?(jobs = 1) nl ~faults =
  let t_start = Hft_obs.Clock.now () in
  Hft_obs.Span.with_ "full-scan-atpg"
    ~attrs:[ ("faults", string_of_int (List.length faults)) ]
  @@ fun () ->
  let dffs = Netlist.dffs nl in
  let assignable = Netlist.pis nl @ dffs in
  let observe =
    Netlist.pos nl @ List.map (fun d -> (Netlist.fanin nl d).(0)) dffs
  in
  let groups = Seq_atpg.class_groups strategy ~supervisor nl faults in
  let leaders = Array.of_list (List.map fst groups) in
  let members = Array.of_list (List.map snd groups) in
  let sizes = Array.of_list (List.map (fun (_, ms) -> List.length ms) groups) in
  let n_groups = Array.length leaders in
  let dropped = Array.make n_groups false in
  (* Forensics ledger rows, one per class ([-1] handles = no-ops when
     observability is off; see {!Hft_obs.Ledger}). *)
  let obs = !Hft_obs.Config.enabled in
  let lh =
    if obs then
      Array.init n_groups (fun gi ->
          Hft_obs.Ledger.register_class
            ~rep:(Fault.to_string nl leaders.(gi))
            ~members:(List.map (Fault.to_string nl) members.(gi)))
    else Array.make n_groups (-1)
  in
  let stats = ref Atpg_stats.empty in
  let tests = ref [] in
  (* One supervised PODEM call for one class on netlist [net] —
     identical search whether [net] is the shared netlist (sequential /
     commit path) or a per-domain {!Netlist.copy} workspace: node ids
     are positions, so faults, assignable and observe transfer
     verbatim and the result is the same. *)
  let podem_for net f =
    Podem.supervised ~supervisor ?guidance ~backtrack_limit net ~faults:[ f ]
      ~assignable ~observe
  in
  (* Commit one pending class.  [spec] is the speculated (outcome,
     telemetry tape) a worker evaluated for this class; replayed here it
     is bit-identical to computing inline, which is also the fallback
     (no speculation at [jobs = 1], dead shard). *)
  let process ?spec gi =
    let f = leaders.(gi) in
    if obs then
      Hft_obs.Journal.record
        (Hft_obs.Journal.Atpg_target
           { cls = lh.(gi); rep = Fault.to_string nl f; frames = 1 });
    let supervised =
      match spec with
      | Some (outcome, tape) ->
        Hft_obs.Capture.replay tape;
        outcome
      | None -> podem_for nl f
    in
    let r, e, abort_evidence =
      match supervised with
      | Ok (r, e) -> (r, e, (backtrack_limit, None))
      | Error fail ->
        (* Ladder exhausted: count the class as a plain PODEM abort
           (zero effort — the attempts died before reporting), with
           the failure as ledger evidence. *)
        let budget =
          match supervisor with
          | Some policy ->
            Hft_robust.Supervisor.final_budget policy
              ~budget:backtrack_limit
          | None -> backtrack_limit
        in
        Hft_obs.Journal.record
          (Hft_obs.Journal.Degraded { site = "podem"; action = "abort" });
        Hft_obs.Registry.incr "hft.robust.degraded";
        ( Podem.Aborted,
          { Podem.decisions = 0; backtracks = 0; implications = 0;
            guided_cuts = 0; static_proof = false },
          (budget, Some (Hft_robust.Failure.to_string fail)) )
    in
    stats := Atpg_stats.add_outcome ~n:sizes.(gi) !stats r e;
    Hft_obs.Ledger.charge lh.(gi) ~implications:e.Podem.implications
      ~backtracks:e.Podem.backtracks ~guided_cuts:e.Podem.guided_cuts;
    if obs && e.Podem.static_proof then
      Hft_obs.Journal.record
        (Hft_obs.Journal.Static_untestable { cls = lh.(gi); frames = 1 });
    if obs then
      Hft_obs.Journal.record
        (Hft_obs.Journal.Podem_result
           { cls = lh.(gi);
             outcome = Podem.result_kind r;
             frames = 1;
             backtracks = e.Podem.backtracks });
    match r with
    | Podem.Test assignment ->
      tests := assignment :: !tests;
      let tid = Hft_obs.Ledger.register_test ~frames:1 in
      if obs then
        Hft_obs.Journal.record
          (Hft_obs.Journal.Test_generated { test = tid; frames = 1 });
      Hft_obs.Ledger.resolve lh.(gi)
        (Hft_obs.Ledger.Podem_detected
           { test = tid; backtracks = e.Podem.backtracks; frames = 1 });
      if strategy = Seq_atpg.Drop then begin
        let pending = ref [] in
        for gj = n_groups - 1 downto gi + 1 do
          if not dropped.(gj) then pending := gj :: !pending
        done;
        match !pending with
        | [] -> ()
        | pending ->
          let parr = Array.of_list pending in
          let run_drop () =
            Fsim.detect_groups nl
              ~on_group_events:(fun k ev ->
                Hft_obs.Ledger.charge lh.(parr.(k)) ~fsim_events:ev)
              ~assignment ~observe
              (List.map (fun gj -> [ leaders.(gj) ]) pending)
          in
          let flags =
            match supervisor with
            | None -> run_drop ()
            | Some _ ->
              (match
                 Hft_robust.Supervisor.protect ~site:Hft_robust.Chaos.Fsim
                   run_drop
               with
               | Ok flags -> flags
               | Error _ ->
                 (* Lose the sweep, keep the test. *)
                 Hft_obs.Journal.record
                   (Hft_obs.Journal.Degraded
                      { site = "fsim"; action = "drop-pass-skipped" });
                 Hft_obs.Registry.incr "hft.robust.degraded";
                 Array.make (List.length pending) false)
          in
          List.iteri
            (fun k gj ->
              if flags.(k) then begin
                dropped.(gj) <- true;
                Hft_obs.Ledger.resolve lh.(gj)
                  (Hft_obs.Ledger.Drop_detected { test = tid });
                if obs then
                  Hft_obs.Journal.record
                    (Hft_obs.Journal.Fault_dropped
                       { cls = lh.(gj); test = tid })
              end)
            pending;
          Hft_obs.Registry.incr "hft.full_scan.dropped"
            ~by:
              (List.fold_left
                 (fun acc gj -> if dropped.(gj) then acc + 1 else acc)
                 0 pending)
      end
    | Podem.Untestable ->
      Hft_obs.Ledger.resolve lh.(gi)
        (Hft_obs.Ledger.Proved_untestable { frames = 1 })
    | Podem.Aborted ->
      let budget, reason = abort_evidence in
      Hft_obs.Ledger.resolve lh.(gi)
        (Hft_obs.Ledger.Aborted { budget; frames = 1; reason })
  in
  (* Speculate PODEM on per-domain {!Netlist.copy} workspaces, commit
     in class order ({!Hft_par.commit_in_order}; {!Seq_atpg.run} is the
     same shape plus the frame ladder). *)
  Hft_par.commit_in_order ?on_stats:on_par_stats ~t0:t_start ~jobs ~n:n_groups
    ~pending:(fun gi -> not dropped.(gi))
    ~init:(fun () ->
      let c = Netlist.copy nl in
      ignore (Netlist.comb_order c);
      c)
    ~eval:(fun ws gi ->
      Hft_obs.Capture.record (fun () -> podem_for ws leaders.(gi)))
    ~commit:process ();
  (* Classes swept by a drop pass never commit; they count as detected
     in one tally (Atpg_stats fields are plain sums). *)
  let n_dropped = ref 0 in
  Array.iteri (fun gi d -> if d then n_dropped := !n_dropped + sizes.(gi)) dropped;
  stats := Atpg_stats.add_detected !stats ~n:!n_dropped;
  let chain = Chain.insert nl dffs in
  { chain; tests = List.rev !tests; stats = !stats }

let insert nl = Chain.insert nl (Netlist.dffs nl)
