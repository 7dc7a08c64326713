open Hft_util

type strategy = Naive | Cone

type comb_result = {
  detected : Fault.t list;
  undetected : Fault.t list;
  n_patterns : int;
}

let coverage r =
  let d = List.length r.detected and u = List.length r.undetected in
  if d + u = 0 then 1.0 else float_of_int d /. float_of_int (d + u)

let load_patterns nl st patterns =
  let pis = Netlist.pis nl in
  let n_patterns = Array.length patterns in
  List.iteri
    (fun i pi ->
      let bv = Bitvec.create n_patterns in
      Array.iteri (fun p row -> Bitvec.set bv p row.(i)) patterns;
      Sim.pset_pi st pi bv)
    pis

(* One flush per simulation call: [events] counts node evaluations
   (nodes × passes for the naive strategy, good pass + cone sizes for
   the cone strategy), the unit the ROADMAP's events/sec goal is stated
   in. *)
let flush ~faults ~detected ~patterns ~events ~seconds =
  if !Hft_obs.Config.enabled then begin
    Hft_obs.Registry.incr "hft.fsim.runs";
    Hft_obs.Registry.incr "hft.fsim.faults" ~by:faults;
    Hft_obs.Registry.incr "hft.fsim.detected" ~by:detected;
    Hft_obs.Registry.incr "hft.fsim.patterns" ~by:patterns;
    Hft_obs.Registry.incr "hft.fsim.events" ~by:events;
    Hft_obs.Registry.observe "hft.fsim.time" seconds;
    if seconds > 0.0 then
      Hft_obs.Registry.set "hft.fsim.events_per_sec"
        (float_of_int events /. seconds);
    Hft_obs.Journal.record
      (Hft_obs.Journal.Fsim_run { faults; detected; patterns; events })
  end

(* ------------------------------------------------------------------ *)
(* Group engine.  A group is one logical fault as a list of injection  *)
(* sites (several when replicated across time frames); detection means *)
(* some observe node differs from the good machine with all sites      *)
(* active at once.                                                     *)

(* Effective roots of a group for one combinational pass: a stem fault
   changes its own node, a pin fault changes the consuming gate — except
   on a [Dff], whose D input is only sampled by [pclock], never read
   combinationally. *)
let group_roots nl group =
  List.filter_map
    (fun f ->
      match f.Fault.pin with
      | None -> Some f.Fault.node
      | Some _ ->
        if Netlist.kind nl f.Fault.node = Netlist.Dff then None
        else Some f.Fault.node)
    group

let group_cone nl group = Netlist.fanout_cone_union nl (group_roots nl group)

(* [run_groups] simulates every group against the good machine whose
   sources [load] establishes.  Returns per-group detection flags plus
   the event count.

   Naive: full re-evaluation of the netlist per group (the historical
   algorithm, kept for differential testing).

   Cone: copy-on-write from the good state — only the union of the
   fault sites' fanout cones is re-evaluated, reading good values for
   fanins outside the cone, and only observe nodes inside the cone are
   compared.  Nodes outside the cone provably keep their good values,
   so the two strategies report bit-identical detections. *)
let run_groups ?(on_group_events = fun _ _ -> ()) ~strategy nl ~n_patterns
    ~load ~observe groups =
  let n = Netlist.n_nodes nl in
  let good = Sim.pcreate nl ~n_patterns in
  load good;
  Sim.peval nl good;
  let events = ref n in
  let n_groups = List.length groups in
  let detected = Array.make n_groups false in
  (match strategy with
   | Naive ->
     let good_obs =
       List.map (fun o -> Bitvec.copy (Sim.pvalue good o)) observe
     in
     let faulty = Sim.pcreate nl ~n_patterns in
     List.iteri
       (fun gi group ->
         (* Reload source values each time: a stem fault on a source
            node forces the state in place and would otherwise leak
            into later groups. *)
         load faulty;
         Sim.peval ~faults:group nl faulty;
         events := !events + n;
         on_group_events gi n;
         detected.(gi) <-
           List.exists2
             (fun o gobs -> Bitvec.any_diff (Sim.pvalue faulty o) gobs)
             observe good_obs)
       groups
   | Cone ->
     let is_obs = Array.make n false in
     List.iter (fun o -> is_obs.(o) <- true) observe;
     (* Copy-on-write faulty values: [None] means "same as good". *)
     let fval : Bitvec.t option array = Array.make n None in
     let pool = ref [] in
     let alloc () =
       match !pool with
       | b :: tl -> pool := tl; b
       | [] -> Bitvec.create n_patterns
     in
     let forced = Array.init 3 (fun _ -> Bitvec.create n_patterns) in
     let tmp = Bitvec.create n_patterns in
     List.iteri
       (fun gi group ->
         (* Groups are one logical fault (a handful of sites at most):
            direct list probes beat building tables. *)
         let stem_of v =
           List.fold_left
             (fun acc f ->
               if f.Fault.pin = None && f.Fault.node = v then Some f else acc)
             None group
         and pin_of v p =
           List.find_opt
             (fun f -> f.Fault.node = v && f.Fault.pin = Some p)
             group
         in
         let read src consumer pin =
           match pin_of consumer pin with
           | Some f ->
             Bitvec.fill forced.(pin) f.Fault.stuck;
             forced.(pin)
           | None ->
             (match fval.(src) with
              | Some b -> b
              | None -> Sim.pvalue good src)
         in
         let cone = group_cone nl group in
         if !Hft_obs.Config.enabled then
           Hft_obs.Registry.record "hft.fsim.cone_nodes"
             (float_of_int (Array.length cone));
         on_group_events gi (Array.length cone);
         let hit = ref false in
         Array.iter
           (fun v ->
             incr events;
             (match stem_of v with
              | Some f ->
                let b = alloc () in
                Bitvec.fill b f.Fault.stuck;
                fval.(v) <- Some b
              | None ->
                (match Netlist.kind nl v with
                 | Netlist.Pi | Netlist.Dff | Netlist.Const0 | Netlist.Const1
                   -> () (* sources keep their good values *)
                 | Netlist.Po | Netlist.Buf ->
                   let b = alloc () in
                   Bitvec.assign ~dst:b (read (Netlist.fanin nl v).(0) v 0);
                   fval.(v) <- Some b
                 | Netlist.Not ->
                   let b = alloc () in
                   Bitvec.not_ ~dst:b (read (Netlist.fanin nl v).(0) v 0);
                   fval.(v) <- Some b
                 | Netlist.And | Netlist.Or | Netlist.Nand | Netlist.Nor
                 | Netlist.Xor | Netlist.Xnor ->
                   let fi = Netlist.fanin nl v in
                   let a = read fi.(0) v 0 and c = read fi.(1) v 1 in
                   let b = alloc () in
                   (match Netlist.kind nl v with
                    | Netlist.And -> Bitvec.and_ ~dst:b a c
                    | Netlist.Or -> Bitvec.or_ ~dst:b a c
                    | Netlist.Xor -> Bitvec.xor ~dst:b a c
                    | Netlist.Nand ->
                      Bitvec.and_ ~dst:tmp a c;
                      Bitvec.not_ ~dst:b tmp
                    | Netlist.Nor ->
                      Bitvec.or_ ~dst:tmp a c;
                      Bitvec.not_ ~dst:b tmp
                    | Netlist.Xnor ->
                      Bitvec.xor ~dst:tmp a c;
                      Bitvec.not_ ~dst:b tmp
                    | _ -> assert false);
                   fval.(v) <- Some b
                 | Netlist.Mux2 ->
                   let fi = Netlist.fanin nl v in
                   let s = read fi.(0) v 0 in
                   let a = read fi.(1) v 1 and c = read fi.(2) v 2 in
                   let b = alloc () in
                   Bitvec.mux ~dst:b s a c;
                   fval.(v) <- Some b));
             if is_obs.(v) then
               match fval.(v) with
               | Some b ->
                 if Bitvec.any_diff b (Sim.pvalue good v) then hit := true
               | None -> ())
           cone;
         detected.(gi) <- !hit;
         Array.iter
           (fun v ->
             match fval.(v) with
             | Some b ->
               pool := b :: !pool;
               fval.(v) <- None
             | None -> ())
           cone)
       groups);
  (detected, !events)

let count_true a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a

let result_of_flags faults flags n_patterns =
  let detected = ref [] and undetected = ref [] in
  List.iteri
    (fun i f ->
      if flags.(i) then detected := f :: !detected
      else undetected := f :: !undetected)
    faults;
  { detected = List.rev !detected; undetected = List.rev !undetected;
    n_patterns }

let zero_dffs nl st =
  List.iter (fun d -> Bitvec.fill (Sim.pvalue st d) false) (Netlist.dffs nl)

let comb ?(strategy = Cone) nl ~patterns faults =
  let t0 = Hft_obs.Clock.now () in
  let n_patterns = Array.length patterns in
  if n_patterns = 0 then
    { detected = []; undetected = faults; n_patterns = 0 }
  else begin
    let load st =
      load_patterns nl st patterns;
      zero_dffs nl st
    in
    let flags, events =
      run_groups ~strategy nl ~n_patterns ~load ~observe:(Netlist.pos nl)
        (List.map (fun f -> [ f ]) faults)
    in
    flush ~faults:(List.length faults) ~detected:(count_true flags)
      ~patterns:n_patterns ~events
      ~seconds:(Hft_obs.Clock.now () -. t0);
    result_of_flags faults flags n_patterns
  end

let comb_random ?strategy nl ~rng ~n_patterns faults =
  let n_pi = List.length (Netlist.pis nl) in
  let patterns =
    Array.init n_patterns (fun _ ->
        Array.init n_pi (fun _ -> Rng.bool rng))
  in
  comb ?strategy nl ~patterns faults

let comb_scan ?(strategy = Cone) nl ~scanned ~patterns faults =
  let t0 = Hft_obs.Clock.now () in
  let n_patterns = Array.length patterns in
  if n_patterns = 0 then
    { detected = []; undetected = faults; n_patterns = 0 }
  else begin
    let pis = Netlist.pis nl in
    let n_pi = List.length pis in
    let load st =
      load_patterns nl st patterns;
      zero_dffs nl st;
      (* Scan load: columns beyond the PIs preset the scan cells. *)
      List.iteri
        (fun i d ->
          let bv = Sim.pvalue st d in
          Array.iteri (fun p row -> Bitvec.set bv p row.(n_pi + i)) patterns)
        scanned
    in
    (* Scan observe: the captured next state of every scan cell is
       shifted out, so its D input joins the POs as an observation
       point. *)
    let observe =
      List.sort_uniq compare
        (Netlist.pos nl
         @ List.map (fun d -> (Netlist.fanin nl d).(0)) scanned)
    in
    let flags, events =
      run_groups ~strategy nl ~n_patterns ~load ~observe
        (List.map (fun f -> [ f ]) faults)
    in
    flush ~faults:(List.length faults) ~detected:(count_true flags)
      ~patterns:n_patterns ~events
      ~seconds:(Hft_obs.Clock.now () -. t0);
    result_of_flags faults flags n_patterns
  end

(* ------------------------------------------------------------------ *)
(* Single-pattern checks (drop pass, replay, salvage): one three-valued *)
(* good machine per call, then per group an event-driven faulty walk.   *)

(* [check_groups] evaluates the good machine from the sources [load]
   writes, then decides each group.

   Naive: a full faulty three-valued pass per group (the oracle).

   Cone: event-driven over a working copy of the good state.  The
   group's roots enter a topo-ordered heap; a popped node is evaluated
   with the group's faults forced, and only a value that differs from
   the good one pushes the node's combinational (non-[Dff]) fanouts.  A
   node never re-evaluated holds its good value — what a full pass
   computes for it — so the flags match [Naive] bit for bit.  The walk
   stops at the first observe node with a defined, differing
   good/faulty pair, and the nodes it evaluated are restored before the
   next group.  [events] counts the nodes actually evaluated. *)
let check_groups ~on_group_events ~strategy nl ~load ~observe groups =
  let t0 = Hft_obs.Clock.now () in
  let n = Netlist.n_nodes nl in
  let good = Sim.tcreate nl in
  load good;
  Sim.teval nl good;
  let events = ref n in
  let detected = Array.make (List.length groups) false in
  let differs g f = g < 2 && f < 2 && g <> f in
  (match strategy with
   | Naive ->
     List.iteri
       (fun gi group ->
         let faulty = Sim.tcreate nl in
         load faulty;
         Sim.teval ~faults:group nl faulty;
         events := !events + n;
         on_group_events gi n;
         detected.(gi) <-
           List.exists (fun o -> differs good.(o) faulty.(o)) observe)
       groups
   | Cone ->
     let is_obs = Array.make n false in
     List.iter (fun o -> is_obs.(o) <- true) observe;
     let kinds = Netlist.raw_kinds nl in
     let fv = Array.copy good in
     let heap = Topo_heap.create nl in
     let rec push_fanouts = function
       | [] -> ()
       | w :: tl ->
         if Array.unsafe_get kinds w <> Netlist.Dff then Topo_heap.push heap w;
         push_fanouts tl
     in
     let touched = Array.make n 0 in
     List.iteri
       (fun gi group ->
         let eval = Sim.teval_fn ~faults:group nl in
         Topo_heap.clear heap;
         List.iter (Topo_heap.push heap) (group_roots nl group);
         let n_touched = ref 0 and hit = ref false in
         while (not !hit) && not (Topo_heap.is_empty heap) do
           let v = Topo_heap.pop heap in
           eval fv v;
           touched.(!n_touched) <- v;
           incr n_touched;
           let g = good.(v) and f = fv.(v) in
           if f <> g then
             if is_obs.(v) && differs g f then hit := true
             else push_fanouts (Netlist.fanout nl v)
         done;
         for i = 0 to !n_touched - 1 do
           let v = touched.(i) in
           fv.(v) <- good.(v)
         done;
         events := !events + !n_touched;
         on_group_events gi !n_touched;
         detected.(gi) <- !hit)
       groups);
  flush ~faults:(Array.length detected) ~detected:(count_true detected)
    ~patterns:1 ~events:!events
    ~seconds:(Hft_obs.Clock.now () -. t0);
  detected

let assign st assignment =
  List.iter (fun (v, b) -> st.(v) <- (if b then 1 else 0)) assignment

let detect_groups ?(on_group_events = fun _ _ -> ()) ?(strategy = Cone) nl
    ~assignment ~observe groups =
  let load st =
    List.iter (fun v -> st.(v) <- 0) (Netlist.pis nl);
    List.iter (fun v -> st.(v) <- 0) (Netlist.dffs nl);
    assign st assignment
  in
  check_groups ~on_group_events ~strategy nl ~load ~observe groups

let detect_groups_tri ?(on_group_events = fun _ _ -> ()) ?(strategy = Cone) nl
    ~assignment ~observe groups =
  check_groups ~on_group_events ~strategy nl
    ~load:(fun st -> assign st assignment)
    ~observe groups

let coverage_curve nl ~checkpoints ~next_pattern faults =
  let checkpoints = List.sort compare checkpoints in
  let remaining = ref faults in
  let total = List.length faults in
  let applied = ref 0 in
  List.map
    (fun target ->
      let batch = max 0 (target - !applied) in
      if batch > 0 then begin
        let patterns = Array.init batch (fun _ -> next_pattern ()) in
        let r = comb nl ~patterns !remaining in
        remaining := r.undetected;
        applied := target
      end;
      let det = total - List.length !remaining in
      (target, if total = 0 then 1.0 else float_of_int det /. float_of_int total))
    checkpoints

let sequential nl ~stimuli faults =
  let t0 = Hft_obs.Clock.now () in
  let good = Sim.run_cycles nl ~stimuli in
  let detected = ref [] and undetected = ref [] in
  List.iter
    (fun f ->
      let bad = Sim.run_cycles ~faults:[ f ] nl ~stimuli in
      if bad <> good then detected := f :: !detected
      else undetected := f :: !undetected)
    faults;
  let n_faults = List.length faults in
  flush ~faults:n_faults
    ~detected:(List.length !detected)
    ~patterns:(Array.length stimuli)
    ~events:(Netlist.n_nodes nl * (n_faults + 1) * Array.length stimuli)
    ~seconds:(Hft_obs.Clock.now () -. t0);
  { detected = List.rev !detected; undetected = List.rev !undetected;
    n_patterns = Array.length stimuli }
