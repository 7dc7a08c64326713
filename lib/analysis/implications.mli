(** Static binary implication graph over netlist literals
    (SOCRATES-style static learning).

    A literal is a [(node, value)] pair.  The graph holds direct
    implications read off gate semantics together with their
    contrapositives, plus learned implications discovered by ternary
    forward simulation of each literal from the all-X baseline — sound
    by ternary monotonicity: a value that settles under a partial
    assignment persists under every refinement.  Each literal's
    simulation is an event-driven wavefront ({!Hft_gate.Topo_heap})
    that visits only nodes whose value moves off the baseline, and
    stops once the literal has learned its cap of edges; learning is
    also capped in total and skipped entirely above a node-count
    threshold.  Construction therefore costs one baseline pass plus the
    sum of the capped wavefronts — not the sum of the literals' whole
    fanout cones — and keeps no per-node cone. *)

type t

type closure_result =
  | Consistent of (int * int) list
      (** every implied literal (assumptions included), sorted *)
  | Contradiction
      (** the assumptions imply both values of some node, or conflict
          with a constant-driven baseline value — unsatisfiable *)

val compute : Hft_gate.Netlist.t -> t

(** [closure t lits] — BFS over the implication graph from the given
    literals.  [Contradiction] is a proof that no source assignment
    satisfies them all. *)
val closure : t -> (int * int) list -> closure_result

(** Direct successors of one literal (tests/reports). *)
val implied : t -> int * int -> (int * int) list

(** Total stored edges (tests/reports). *)
val n_edges : t -> int
