package sat

// oracleHeap is the reference decision heap that varHeap must match pop for
// pop: a binary max-heap of variables that reads each activity through a
// pointer to the solver's activity array on every comparison, so it can
// never hold a stale key. varHeap stores a copy of the key in each slot
// instead; driving both through one sequence of operations and comparing
// what they pop shows the copies never drift and the decisions never move.
type oracleHeap struct {
	heap    []Var
	indices []int32
	act     *[]float64
}

func (h *oracleHeap) less(x, y Var) bool { return (*h.act)[x] > (*h.act)[y] }

func (h *oracleHeap) inHeap(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *oracleHeap) percolateUp(i int32) {
	x := h.heap[i]
	p := (i - 1) >> 1
	for i != 0 && h.less(x, h.heap[p]) {
		h.heap[i] = h.heap[p]
		h.indices[h.heap[p]] = i
		i = p
		p = (i - 1) >> 1
	}
	h.heap[i] = x
	h.indices[x] = i
}

func (h *oracleHeap) percolateDown(i int32) {
	x := h.heap[i]
	n := int32(len(h.heap))
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && h.less(h.heap[r], h.heap[l]) {
			child = r
		}
		if !h.less(h.heap[child], x) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[i]] = i
		i = child
	}
	h.heap[i] = x
	h.indices[x] = i
}

func (h *oracleHeap) insert(v Var) {
	for len(h.indices) <= int(v) {
		h.indices = append(h.indices, -1)
	}
	if h.inHeap(v) {
		return
	}
	h.indices[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.percolateUp(h.indices[v])
}

func (h *oracleHeap) empty() bool { return len(h.heap) == 0 }

func (h *oracleHeap) removeMin() Var {
	x := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap[0] = last
	h.indices[last] = 0
	h.indices[x] = -1
	h.heap = h.heap[:len(h.heap)-1]
	if len(h.heap) > 1 {
		h.percolateDown(0)
	}
	return x
}

func (h *oracleHeap) decreased(v Var) {
	if h.inHeap(v) {
		h.percolateUp(h.indices[v])
	}
}
