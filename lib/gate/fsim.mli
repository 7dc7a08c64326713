(** Fault simulation.

    Combinational: pattern-parallel (62 patterns per machine word).
    Two strategies share one harness: [Naive] re-evaluates the whole
    netlist per fault (the historical algorithm, kept as the
    differential-testing oracle), [Cone] (the default) copies-on-write
    from the good-value state and re-evaluates only the fault's
    precomputed fanout cone ({!Netlist.fanout_cone}), comparing only
    observation points inside the cone.  Nodes outside the cone provably
    keep their good values, so both strategies report bit-identical
    detections; the event count ([hft.fsim.events]) drops from
    [n_nodes * (n_faults + 1)] to [n_nodes + sum of cone sizes].
    Single-pattern ({!detect_groups}, {!detect_groups_tri}): one
    three-valued good pass, then per group an event-driven check under
    [Cone] — only nodes whose fanins changed are re-evaluated, in
    topological order ({!Topo_heap}), stopping at the first detecting
    observe node; [Naive] re-evaluates the whole netlist per group.
    Events count the nodes actually evaluated.
    Sequential: cycle-accurate single-fault simulation over a stimulus
    sequence. *)

type strategy = Naive | Cone

type comb_result = {
  detected : Fault.t list;
  undetected : Fault.t list;
  n_patterns : int;
}

val coverage : comb_result -> float

(** [comb nl ~patterns faults] — [patterns] is a matrix
    [(pattern, pi index in Netlist.pis order)].  A fault is detected
    when any PO differs on any pattern.  DFF states are held at 0 (use
    {!comb} on purely combinational blocks for exact results). *)
val comb :
  ?strategy:strategy ->
  Netlist.t -> patterns:bool array array -> Fault.t list -> comb_result

(** [comb_random nl ~rng ~n_patterns faults] with uniform random
    patterns. *)
val comb_random :
  ?strategy:strategy ->
  Netlist.t -> rng:Hft_util.Rng.t -> n_patterns:int -> Fault.t list ->
  comb_result

(** [comb_scan nl ~scanned ~patterns faults] — full/partial-scan fault
    simulation as one combinational pass per pattern.  Each pattern row
    is [|pis| + |scanned|] wide: the tail columns preset the scan cells
    (in [scanned] order) as pseudo primary inputs, and the D input of
    every scan cell joins the POs as an observation point (the captured
    next state is shifted out).  Non-scanned DFFs are held at 0. *)
val comb_scan :
  ?strategy:strategy ->
  Netlist.t -> scanned:int list -> patterns:bool array array ->
  Fault.t list -> comb_result

(** [detect_groups nl ~assignment ~observe groups] — single-pattern
    detection check used for fault dropping.  [assignment] gives values
    for source nodes (PIs/DFFs; unlisted sources default to [false]);
    each group is one logical fault as a list of simultaneous injection
    sites (several when a fault is replicated across time frames).
    Returns a per-group flag: some node in [observe] differs from the
    good machine.  [on_group_events] (default: ignore) is called once
    per group with [(group index, simulation events charged to it)] —
    the nodes the event-driven check evaluated under [Cone], the full
    node count under [Naive] —
    letting callers attribute fsim cost to individual fault classes
    (the {!Hft_obs.Ledger} hook). *)
val detect_groups :
  ?on_group_events:(int -> int -> unit) ->
  ?strategy:strategy ->
  Netlist.t -> assignment:(int * bool) list -> observe:int list ->
  Fault.t list list -> bool array

(** [detect_groups_tri] — three-valued variant of {!detect_groups}:
    sources without an assignment stay at X and detection requires a
    defined, differing good/faulty value at an observe node
    ({!Podem.check}'s criterion), so a positive answer holds for any
    value of the unassigned sources — the sound drop check on circuits
    with unknown initial state. *)
val detect_groups_tri :
  ?on_group_events:(int -> int -> unit) ->
  ?strategy:strategy ->
  Netlist.t -> assignment:(int * bool) list -> observe:int list ->
  Fault.t list list -> bool array

(** Coverage as a function of pattern count: returns
    [(patterns applied, cumulative coverage)] at each checkpoint.
    Patterns come from [next_pattern], called once per pattern per PI
    bit — this is how LFSR / accumulator generators drive the same
    machinery. *)
val coverage_curve :
  Netlist.t -> checkpoints:int list ->
  next_pattern:(unit -> bool array) -> Fault.t list -> (int * float) list

(** Sequential: [sequential nl ~stimuli faults] runs each fault over the
    cycle stimulus and compares PO streams against the good machine. *)
val sequential :
  Netlist.t -> stimuli:bool array array -> Fault.t list -> comb_result
