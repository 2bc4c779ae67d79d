package mcf

// heap is a binary min-heap of (dist, node) pairs specialized for the
// Dijkstra inner loop; it avoids the interface indirection of
// container/heap, which dominates profile time on large OPT graphs.
// Sifting moves a hole instead of swapping, but compares exactly as a
// swap-based heap does (<= going up, strict < going down, left child
// first), so equal distances pop in the same order.
type heap struct {
	items []heapItem
}

type heapItem struct {
	dist int64
	node int32
}

func (h *heap) len() int { return len(h.items) }

func (h *heap) reset() { h.items = h.items[:0] }

func (h *heap) push(d int64, n int32) {
	//lfolint:ignore hotpath-alloc heap storage grows to the frontier high-water mark; reset() keeps the capacity across solves
	h.items = append(h.items, heapItem{})
	items := h.items
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if items[p].dist <= d {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = heapItem{d, n}
}

func (h *heap) pop() (int64, int32) {
	items := h.items
	top := items[0]
	last := len(items) - 1
	x := items[last]
	h.items = items[:last]
	if last > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= last {
				break
			}
			small, sd := i, x.dist
			if items[l].dist < sd {
				small, sd = l, items[l].dist
			}
			if r := l + 1; r < last && items[r].dist < sd {
				small = r
			}
			if small == i {
				break
			}
			items[i] = items[small]
			i = small
		}
		items[i] = x
	}
	return top.dist, top.node
}
