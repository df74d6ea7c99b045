package route

// pqHeap is the A* open list: a binary min-heap of (f, cell) entries,
// specialized so pushes and pops never box through interface{} the way
// container/heap does. Sifts move a hole instead of swapping: the moving
// entry is held aside and written once where it settles. The comparisons
// mirror container/heap exactly — strict less-than, first child preferred
// on ties — so the pop order (and therefore the routed result) is the same
// bit for bit (FuzzPQHeapOrder). The backing slice is reused across
// searches via reset(), which keeps capacity.
type pqHeap struct {
	items []pqEntry
}

type pqEntry struct {
	f    float64
	cell int32
}

func (h *pqHeap) len() int { return len(h.items) }

func (h *pqHeap) reset() { h.items = h.items[:0] }

func (h *pqHeap) push(cell int32, f float64) {
	h.items = append(h.items, pqEntry{})
	items := h.items
	j := len(items) - 1
	for j > 0 {
		i := (j - 1) / 2
		if f >= items[i].f {
			break
		}
		items[j] = items[i]
		j = i
	}
	items[j] = pqEntry{f: f, cell: cell}
}

func (h *pqHeap) pop() (int32, float64) {
	items := h.items
	top := items[0]
	n := len(items) - 1
	x := items[n]
	h.items = items[:n]
	if n == 0 {
		return top.cell, top.f
	}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && items[j2].f < items[j].f {
			j = j2
		}
		if items[j].f >= x.f {
			break
		}
		items[i] = items[j]
		i = j
	}
	items[i] = x
	return top.cell, top.f
}
