type t = {
  pos : int array;
  heap : int array; (* 1-based binary min-heap on [pos] *)
  mutable size : int;
  mark : int array; (* [mark.(v) = stamp]: pushed since the last [clear] *)
  mutable stamp : int;
}

let create nl =
  let n = Netlist.n_nodes nl in
  { pos = Netlist.topo_pos nl; heap = Array.make (n + 1) 0; size = 0;
    mark = Array.make n 0; stamp = 1 }

let clear h =
  h.stamp <- h.stamp + 1;
  h.size <- 0

let is_empty h = h.size = 0

let push h v =
  if h.mark.(v) <> h.stamp then begin
    h.mark.(v) <- h.stamp;
    let heap = h.heap and pos = h.pos in
    h.size <- h.size + 1;
    let i = ref h.size in
    while !i > 1 && pos.(heap.(!i / 2)) > pos.(v) do
      heap.(!i) <- heap.(!i / 2);
      i := !i / 2
    done;
    heap.(!i) <- v
  end

let pop h =
  let heap = h.heap and pos = h.pos in
  let top = heap.(1) in
  let last = heap.(h.size) in
  h.size <- h.size - 1;
  let size = h.size in
  let i = ref 1 and sifting = ref true in
  while !sifting do
    let l = 2 * !i in
    if l > size then sifting := false
    else begin
      let c =
        if l < size && pos.(heap.(l + 1)) < pos.(heap.(l)) then l + 1 else l
      in
      if pos.(heap.(c)) < pos.(last) then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    end
  done;
  if size > 0 then heap.(!i) <- last;
  top
