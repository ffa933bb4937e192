package sat

// heapEntry is one slot of the decision heap: a variable together with a
// copy of its activity. Holding the key inline lets the sift loops compare
// two floats in the slot they already loaded instead of indexing the
// solver's activity array through a pointer for every comparison. The
// solver keeps the copy equal to its activity for every variable in the
// heap (insert, decreased, rescale), so the order is the one an
// activity-indexed heap would give, pop for pop.
type heapEntry struct {
	act float64
	v   Var
}

// varHeap is a binary max-heap of variables ordered by activity, with an
// index map for decrease/increase-key. It backs the VSIDS decision order.
type varHeap struct {
	heap    []heapEntry
	indices []int32 // variable -> position in heap, or -1
}

func (h *varHeap) grow(n int) {
	for len(h.indices) < n {
		h.indices = append(h.indices, -1)
	}
}

// reserve makes room for n variables (withRoom).
func (h *varHeap) reserve(n int) {
	h.heap = withRoom(h.heap, n)
	h.indices = withRoom(h.indices, n)
}

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) percolateUp(i int32) {
	x := h.heap[i]
	p := (i - 1) >> 1
	for i != 0 && x.act > h.heap[p].act {
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i].v] = i
		i = p
		p = (i - 1) >> 1
	}
	h.heap[i] = x
	h.indices[x.v] = i
}

func (h *varHeap) percolateDown(i int32) {
	x := h.heap[i]
	n := int32(len(h.heap))
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		child := l
		if r := l + 1; r < n && h.heap[r].act > h.heap[l].act {
			child = r
		}
		if !(h.heap[child].act > x.act) {
			break
		}
		h.heap[i] = h.heap[child]
		h.indices[h.heap[i].v] = i
		i = child
	}
	h.heap[i] = x
	h.indices[x.v] = i
}

// insert adds v with activity act; a variable already in the heap is left
// where it is.
func (h *varHeap) insert(v Var, act float64) {
	h.grow(int(v) + 1)
	if h.inHeap(v) {
		return
	}
	h.indices[v] = int32(len(h.heap))
	h.heap = append(h.heap, heapEntry{act, v})
	h.percolateUp(h.indices[v])
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) removeMin() Var {
	x := h.heap[0].v
	last := h.heap[len(h.heap)-1]
	h.heap[0] = last
	h.indices[last.v] = 0
	h.indices[x] = -1
	h.heap = h.heap[:len(h.heap)-1]
	if len(h.heap) > 1 {
		h.percolateDown(0)
	}
	return x
}

// decreased records v's activity rising to act and restores heap order
// (a higher activity means v should move toward the root). A variable not
// in the heap is ignored; insert picks its activity up when it returns.
func (h *varHeap) decreased(v Var, act float64) {
	if h.inHeap(v) {
		i := h.indices[v]
		h.heap[i].act = act
		h.percolateUp(i)
	}
}

// rescale multiplies every stored activity by f, mirroring the solver's
// rescale of its activity array. Scaling by a positive constant keeps the
// heap ordered, so nothing moves.
func (h *varHeap) rescale(f float64) {
	for i := range h.heap {
		h.heap[i].act *= f
	}
}
