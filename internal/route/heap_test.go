package route

import (
	"math/rand"
	"testing"
)

// refHeap is the struct-of-arrays open list pqHeap replaced, kept verbatim
// as the pop-order oracle: it swaps on every sift step, exactly as
// container/heap does.
type refHeap struct {
	cell []int32
	f    []float64
}

func (h *refHeap) len() int { return len(h.cell) }

func (h *refHeap) push(cell int32, f float64) {
	h.cell = append(h.cell, cell)
	h.f = append(h.f, f)
	// Sift up (container/heap.Push semantics).
	j := len(h.cell) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h.f[j] >= h.f[i] {
			break
		}
		h.cell[i], h.cell[j] = h.cell[j], h.cell[i]
		h.f[i], h.f[j] = h.f[j], h.f[i]
		j = i
	}
}

func (h *refHeap) pop() (int32, float64) {
	top, topF := h.cell[0], h.f[0]
	n := len(h.cell) - 1
	h.cell[0], h.f[0] = h.cell[n], h.f[n]
	h.cell = h.cell[:n]
	h.f = h.f[:n]
	// Sift down (container/heap.Pop semantics).
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.f[j2] < h.f[j1] {
			j = j2
		}
		if h.f[j] >= h.f[i] {
			break
		}
		h.cell[i], h.cell[j] = h.cell[j], h.cell[i]
		h.f[i], h.f[j] = h.f[j], h.f[i]
		i = j
	}
	return top, topF
}

// FuzzPQHeapOrder drives pqHeap and the swapping reference through the same
// push/pop sequence and requires the same (cell, f) pop sequence. Each input
// byte is one operation: the top two bits 11 pop, anything else pushes the
// next cell id with f quantised to eight levels, so ties are the common case
// and any change in tie-breaking shows up in the cell order. Both heaps are
// drained at the end, and a reset between two passes checks reuse.
func FuzzPQHeapOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0xc0, 0xc0, 0xc0})
	f.Add([]byte{0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x00, 0xc0, 0x03, 0xc0})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 4096)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var got pqHeap
		for pass := 0; pass < 2; pass++ {
			got.reset()
			var want refHeap
			var next int32
			pops := 0
			check := func() {
				pops++
				wc, wf := want.pop()
				gc, gf := got.pop()
				if gc != wc || gf != wf {
					t.Fatalf("pass %d pop %d: got (%d, %g), want (%d, %g)", pass, pops, gc, gf, wc, wf)
				}
			}
			for _, b := range ops {
				if b>>6 == 3 {
					if want.len() > 0 {
						check()
					}
					continue
				}
				fv := float64(b&7) * 0.25
				want.push(next, fv)
				got.push(next, fv)
				next++
				if got.len() != want.len() {
					t.Fatalf("pass %d: len %d, want %d", pass, got.len(), want.len())
				}
			}
			for want.len() > 0 {
				check()
			}
			if got.len() != 0 {
				t.Fatalf("pass %d: %d entries left after draining the reference", pass, got.len())
			}
		}
	})
}
