open Hft_gate

(* Static binary implication graph over netlist literals.

   A literal is [2*node + value].  Edges come from two sources:

   - direct implications read off gate semantics, recorded together
     with their contrapositives (e.g. for an And input [a]:
     [(a,0) -> (g,0)] and [(g,1) -> (a,1)]);
   - learned implications from per-literal ternary forward simulation:
     assert one literal on top of the all-X baseline and propagate it
     as an event-driven wavefront ({!Topo_heap}): a popped node is
     evaluated, and only a value that differs from the baseline pushes
     its combinational (non-[Dff]) fanouts.  Every node that settles to
     a concrete value is an implied literal.  Ternary evaluation is
     monotone, so any total source assignment refining the partial one
     reproduces those values — the implication holds universally.  The
     contrapositive of each learned edge is stored too.  Nodes the
     wavefront never reaches keep their baseline value, which is what
     evaluating them would give, and the heap pops in topological
     order, so the edges, and which ones the per-literal cap cuts off,
     are those of an in-order pass over the literal's whole fanout
     cone.  Only the touched nodes are restored afterwards.

   The closure is a plain BFS with stamp-array scratch (no per-call
   allocation beyond the result list).  Baseline-concrete nodes
   (constants and their cones) act as unit facts: a closure literal
   that contradicts the baseline is a contradiction. *)

type closure_result = Consistent of (int * int) list | Contradiction

type t = {
  i_n : int;
  i_succs : int list array;  (* per literal, implied literals *)
  i_base : int array;  (* all-X baseline values, 0/1/2 *)
  i_edges : int;
  (* closure scratch *)
  i_stamp : int array;
  i_sval : int array;
  mutable i_clock : int;
}

let x = 2

(* Learned-edge budgets: per source literal and total, so dense
   netlists cannot blow the graph up quadratically. *)
let per_lit_cap = 32
let total_cap = 200_000
let learn_max_nodes = 20_000

let compute nl =
  let n = Netlist.n_nodes nl in
  let succs = Array.make (2 * n) [] in
  let edges = ref 0 in
  let add_edge l1 l2 =
    succs.(l1) <- l2 :: succs.(l1);
    incr edges
  in
  (* Forward rule plus contrapositive in one shot. *)
  let pair (a, va) (b, vb) =
    add_edge ((2 * a) + va) ((2 * b) + vb);
    add_edge ((2 * b) + (1 - vb)) ((2 * a) + (1 - va))
  in
  for g = 0 to n - 1 do
    let fi = Netlist.fanin nl g in
    match Netlist.kind nl g with
    | Netlist.And -> Array.iter (fun a -> pair (a, 0) (g, 0)) fi
    | Netlist.Or -> Array.iter (fun a -> pair (a, 1) (g, 1)) fi
    | Netlist.Nand -> Array.iter (fun a -> pair (a, 0) (g, 1)) fi
    | Netlist.Nor -> Array.iter (fun a -> pair (a, 1) (g, 0)) fi
    | Netlist.Buf | Netlist.Po ->
      pair (fi.(0), 0) (g, 0);
      pair (fi.(0), 1) (g, 1)
    | Netlist.Not ->
      pair (fi.(0), 0) (g, 1);
      pair (fi.(0), 1) (g, 0)
    | Netlist.Xor | Netlist.Xnor | Netlist.Mux2 | Netlist.Pi | Netlist.Dff
    | Netlist.Const0 | Netlist.Const1 -> ()
  done;
  (* All-X baseline: only constants (and what they force) are concrete. *)
  let base = Sim.tcreate nl in
  Sim.teval nl base;
  if n <= learn_max_nodes then begin
    let scratch = Array.copy base in
    let eval = Sim.teval_fn nl scratch in
    let kinds = Netlist.raw_kinds nl in
    let heap = Topo_heap.create nl in
    let touched = Array.make n 0 in
    let push_fanouts v =
      List.iter
        (fun w -> if kinds.(w) <> Netlist.Dff then Topo_heap.push heap w)
        (Netlist.fanout nl v)
    in
    let v = ref 0 in
    while !v < n && !edges < total_cap do
      let src = !v in
      if base.(src) = x then
        for b = 0 to 1 do
          let lit = (2 * src) + b in
          scratch.(src) <- b;
          Topo_heap.clear heap;
          push_fanouts src;
          let n_touched = ref 0 and learned = ref 0 in
          while
            !learned < per_lit_cap && !edges < total_cap
            && not (Topo_heap.is_empty heap)
          do
            let w = Topo_heap.pop heap in
            eval w;
            touched.(!n_touched) <- w;
            incr n_touched;
            let s = scratch.(w) in
            if s <> base.(w) then begin
              if s <> x && base.(w) = x then begin
                incr learned;
                add_edge lit ((2 * w) + s);
                (* contrapositive *)
                add_edge ((2 * w) + (1 - s)) ((2 * src) + (1 - b))
              end;
              push_fanouts w
            end
          done;
          for i = 0 to !n_touched - 1 do
            let w = touched.(i) in
            scratch.(w) <- base.(w)
          done;
          scratch.(src) <- base.(src)
        done;
      incr v
    done
  end;
  { i_n = n; i_succs = succs; i_base = base; i_edges = !edges;
    i_stamp = Array.make n 0; i_sval = Array.make n 0; i_clock = 0 }

let n_edges t = t.i_edges

let implied t (v, b) =
  if v < 0 || v >= t.i_n then []
  else List.map (fun l -> (l / 2, l land 1)) t.i_succs.((2 * v) + b)

let closure t lits =
  t.i_clock <- t.i_clock + 1;
  let s = t.i_clock in
  let contradiction = ref false in
  let acc = ref [] in
  let queue = Queue.create () in
  let assume (v, b) =
    if v >= 0 && v < t.i_n && not !contradiction then begin
      if t.i_base.(v) <> x && t.i_base.(v) <> b then contradiction := true
      else if t.i_stamp.(v) = s then begin
        if t.i_sval.(v) <> b then contradiction := true
      end
      else begin
        t.i_stamp.(v) <- s;
        t.i_sval.(v) <- b;
        acc := (v, b) :: !acc;
        Queue.add ((2 * v) + b) queue
      end
    end
  in
  List.iter assume lits;
  while (not !contradiction) && not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    List.iter (fun l' -> assume (l' / 2, l' land 1)) t.i_succs.(l)
  done;
  if !contradiction then Contradiction
  else Consistent (List.sort compare !acc)
