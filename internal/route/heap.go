package route

import (
	"math"
	"math/bits"
)

// pqHeap is the A* open list: a binary min-heap of (f, cell) entries,
// specialized so pushes and pops never box through interface{} the way
// container/heap does. The heap's shape and comparisons are container/heap's
// — strict less-than between children, first child preferred on ties, an
// entry settles below a parent it does not undercut — so the pop order (and
// therefore the routed result) is the same bit for bit (FuzzPQHeapOrder).
//
// Three things make the loops cheap without changing that order:
//   - each f is stored as an order-preserving uint64 key (fKey), so every
//     comparison is an integer one;
//   - one max-key sentinel slot follows the last entry, so picking the
//     smaller child needs no bounds test and is a subtract-with-borrow, not
//     a branch on the keys;
//   - pop moves the hole to a leaf along the smaller-child path and then
//     sifts the held last entry up while its parent is >= it, which lands it
//     in exactly the slot container/heap's sift-down picks, with about half
//     the comparisons.
//
// The backing slice is reused across searches via reset(), which keeps
// capacity. f must not be NaN.
type pqHeap struct {
	items []pqEntry // entries, then the sentinel; empty before the first reset
}

type pqEntry struct {
	key  uint64
	cell int32
}

var pqSentinel = pqEntry{key: math.MaxUint64}

// fKey maps f to a key that orders as f does under < and >=: −0 is folded
// into +0 first (−0 + 0 = +0), then a non-negative value gets its sign bit
// set and a negative one has every bit flipped.
func fKey(f float64) uint64 {
	b := math.Float64bits(f + 0)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// keyF inverts fKey (up to the sign of zero).
func keyF(k uint64) float64 {
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

func (h *pqHeap) len() int { return max(len(h.items)-1, 0) }

func (h *pqHeap) reset() { h.items = append(h.items[:0], pqSentinel) }

// push adds an entry. The heap must have been reset at least once.
func (h *pqHeap) push(cell int32, f float64) {
	key := fKey(f)
	h.items = append(h.items, pqSentinel)
	items := h.items
	j := len(items) - 2 // the old sentinel slot
	for j > 0 {
		i := (j - 1) / 2
		if key >= items[i].key {
			break
		}
		items[j] = items[i]
		j = i
	}
	items[j] = pqEntry{key: key, cell: cell}
}

func (h *pqHeap) pop() (int32, float64) {
	n := len(h.items) - 2 // the last entry's slot, and the length after the pop
	h.items = h.items[:n+1]
	items := h.items
	top := items[0]
	x := items[n]
	items[n] = pqSentinel
	if n == 0 {
		return top.cell, keyF(top.key)
	}
	// Hole descent to a leaf: items[n] is the sentinel, so j+1 <= n is
	// always a valid slot and never wins against a real entry.
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		// The borrow of c[1].key - c[0].key is 1 exactly when the second
		// child is strictly smaller, so the select is arithmetic, not a
		// branch on the keys.
		c := items[j : j+2]
		_, right := bits.Sub64(c[1].key, c[0].key, 0)
		j += int(right)
		items[i] = items[j]
		i = j
	}
	// Sift x back up past every entry on the path that is >= x.
	for i > 0 {
		p := (i - 1) / 2
		if items[p].key < x.key {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = x
	return top.cell, keyF(top.key)
}
