(** Event queue for event-driven combinational evaluation: a min-heap of
    node ids ordered by {!Netlist.topo_pos}.  Popping in topological
    order evaluates a node only after every fanin that changed has
    settled, so each node is evaluated at most once per wavefront.
    Shared by PODEM's implication, the single-pattern fault check
    ({!Fsim.detect_groups}) and static implication learning
    ([Hft_analysis.Implications]).  Non-allocating after {!create}. *)

type t

(** An empty heap over [nl]'s nodes (capturing its current
    {!Netlist.topo_pos}; recreate after structural edits). *)
val create : Netlist.t -> t

(** Empty the heap and start a new wavefront: O(1). *)
val clear : t -> unit

val is_empty : t -> bool

(** [push h v] enqueues [v] unless it was already pushed since the last
    {!clear} (popped nodes included). *)
val push : t -> int -> unit

(** Remove and return the node with the smallest topological position.
    The heap must be non-empty. *)
val pop : t -> int
