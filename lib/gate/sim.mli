(** Logic simulation: pattern-parallel two-valued and scalar
    three-valued, both with optional fault injection. *)

(** {1 Pattern-parallel (bit-sliced) two-valued simulation} *)

type pstate = {
  values : Hft_util.Bitvec.t array; (** per node, one bit per pattern *)
  n_patterns : int;
}

val pcreate : Netlist.t -> n_patterns:int -> pstate

(** Assign a PI's value across patterns. *)
val pset_pi : pstate -> int -> Hft_util.Bitvec.t -> unit

(** Set a DFF's current state across patterns. *)
val pset_state : pstate -> int -> Hft_util.Bitvec.t -> unit

(** Evaluate all combinational nodes in order; [faults] are forced
    during evaluation (stem faults force the node's value; pin faults
    force the value seen by that gate input). *)
val peval : ?faults:Fault.t list -> Netlist.t -> pstate -> unit

(** Clock edge: every DFF samples its D input ([peval] must have run). *)
val pclock : ?faults:Fault.t list -> Netlist.t -> pstate -> unit

val pvalue : pstate -> int -> Hft_util.Bitvec.t

(** {1 Scalar three-valued simulation (values 0/1/2=X)} *)

type tstate = int array

val tcreate : Netlist.t -> tstate

(** Evaluate combinationally from PI/DFF/Const values already in the
    state; X-propagation; [faults] force 0/1 at their sites. *)
val teval : ?faults:Fault.t list -> Netlist.t -> tstate -> unit

(** [teval_fn ?faults nl] pre-resolves the fault table and netlist
    arrays once, returning a single-node evaluator — for event-driven
    callers that re-evaluate individual nodes many times.  On a source
    node it only applies stem forcing (the caller owns source values). *)
val teval_fn : ?faults:Fault.t list -> Netlist.t -> tstate -> int -> unit

(** {1 Convenience} *)

(** Run [cycles] clocked cycles applying per-cycle PI vectors from
    [stimuli]; returns the PO value matrix (cycle, po index in
    [Netlist.pos] order).  DFFs start at [init] (default all-0). *)
val run_cycles :
  ?faults:Fault.t list -> ?init:bool list -> Netlist.t ->
  stimuli:bool array array -> bool array array
