package sim

// Indexed binary min-heap of runnable threads, ordered by (virtual clock,
// spawn index). The root is always the thread furthest behind in virtual
// time, with ties broken toward the earliest-spawned thread — exactly the
// pick order the old O(n) pickReady scan produced, at O(log n) per update
// and O(1) per peek. Each thread carries its heap position (hpos) so
// membership needs no search and removal needs no scan.

// heapLess orders threads by (now, spawn index).
func heapLess(a, b *Thread) bool {
	return a.now < b.now || (a.now == b.now && a.index < b.index)
}

// push inserts t into the domain's ready heap.
func (d *domain) push(t *Thread) {
	t.hpos = len(d.heap)
	d.heap = append(d.heap, t)
	d.siftUp(t.hpos)
}

// peek returns the furthest-behind ready thread without removing it, or nil.
func (d *domain) peek() *Thread {
	if len(d.heap) == 0 {
		return nil
	}
	return d.heap[0]
}

// remove takes t out of the domain's ready heap: the last entry fills its
// slot and sifts to its place.
func (d *domain) remove(t *Thread) {
	i, last := t.hpos, len(d.heap)-1
	moved := d.heap[last]
	d.heap[last] = nil
	d.heap = d.heap[:last]
	t.hpos = -1
	if i < last {
		d.heap[i] = moved
		d.siftDown(i)
		d.siftUp(moved.hpos)
	}
}

func (d *domain) siftUp(i int) {
	h := d.heap
	t := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(t, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].hpos = i
		i = parent
	}
	h[i] = t
	t.hpos = i
}

func (d *domain) siftDown(i int) {
	h := d.heap
	n := len(h)
	t := h[i]
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && heapLess(h[r], h[kid]) {
			kid = r
		}
		if !heapLess(h[kid], t) {
			break
		}
		h[i] = h[kid]
		h[i].hpos = i
		i = kid
	}
	h[i] = t
	t.hpos = i
}
