package ddc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"teleport/internal/mem"
	"teleport/internal/netmodel"
)

func TestCacheInsertLookup(t *testing.T) {
	c := NewPageCache(2)
	if _, ok := c.Insert(1, true, false); ok {
		t.Fatal("unexpected eviction")
	}
	w, d, ok := c.Lookup(1)
	if !ok || !w || d {
		t.Fatalf("Lookup = %v %v %v", w, d, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewPageCache(2)
	c.Insert(1, false, false)
	c.Insert(2, false, true)
	c.Lookup(1) // 1 becomes MRU, 2 is the victim
	ev, ok := c.Insert(3, false, false)
	if !ok || ev.Page != 2 || !ev.Dirty {
		t.Fatalf("evicted = %+v %v", ev, ok)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestCacheUnlimited(t *testing.T) {
	c := NewPageCache(0)
	for i := 0; i < 1000; i++ {
		if _, ok := c.Insert(mem.PageID(i), false, false); ok {
			t.Fatal("unlimited cache must never evict")
		}
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheReinsertUpdatesBits(t *testing.T) {
	c := NewPageCache(4)
	c.Insert(7, false, false)
	c.Insert(7, true, true)
	w, d, _ := c.Lookup(7)
	if !w || !d {
		t.Fatal("reinsert did not update bits")
	}
	if c.Len() != 1 {
		t.Fatal("reinsert duplicated entry")
	}
}

func TestCacheRemoveAndBits(t *testing.T) {
	c := NewPageCache(4)
	c.Insert(5, true, false)
	if !c.MarkDirty(5) {
		t.Fatal("MarkDirty on resident page failed")
	}
	if c.MarkDirty(6) {
		t.Fatal("MarkDirty on absent page succeeded")
	}
	if !c.SetWritable(5, false) {
		t.Fatal("SetWritable failed")
	}
	if w, _, _ := c.Lookup(5); w {
		t.Fatal("downgrade did not stick")
	}
	c.ClearDirty(5)
	if _, d, _ := c.Lookup(5); d {
		t.Fatal("ClearDirty did not stick")
	}
	dirty, ok := c.Remove(5)
	if !ok || dirty {
		t.Fatalf("Remove = %v %v", dirty, ok)
	}
	if _, ok := c.Remove(5); ok {
		t.Fatal("double Remove succeeded")
	}
}

func TestCacheRangeMRUOrder(t *testing.T) {
	c := NewPageCache(4)
	c.Insert(1, false, false)
	c.Insert(2, false, false)
	c.Insert(3, false, false)
	c.Lookup(1)
	var order []mem.PageID
	c.Range(func(p mem.PageID, _, _ bool) bool {
		order = append(order, p)
		return true
	})
	want := []mem.PageID{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Clear must keep the table (a cleared cache refills without allocating)
// and leave no stale residency or links behind.
func TestCacheClearKeepsStorage(t *testing.T) {
	c := NewPageCache(8)
	for p := mem.PageID(0); p < 20; p++ {
		c.Insert(p, true, true)
	}
	size := len(c.tab)
	c.Clear()
	if c.Len() != 0 || len(c.tab) != size {
		t.Fatalf("after Clear: Len %d, table %d entries (was %d)", c.Len(), len(c.tab), size)
	}
	for p := mem.PageID(0); p < 20; p++ {
		if c.Contains(p) {
			t.Fatalf("page %d resident after Clear", p)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for p := mem.PageID(0); p < 20; p++ {
			c.Insert(p, false, false)
		}
		c.Clear()
	}); allocs != 0 {
		t.Fatalf("refilling a cleared cache allocates %.1f objects, want 0", allocs)
	}
}

// Property: cache size never exceeds capacity and residency matches a model
// map, under random insert/lookup/remove traffic.
func TestCacheModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capPages := r.Intn(16) + 1
		c := NewPageCache(capPages)
		model := map[mem.PageID]bool{}
		for i := 0; i < 500; i++ {
			p := mem.PageID(r.Intn(40))
			switch r.Intn(3) {
			case 0:
				if v, ok := c.Insert(p, false, false); ok {
					delete(model, v.Page)
				}
				model[p] = true
			case 1:
				_, _, got := c.Lookup(p)
				if got != model[p] {
					return false
				}
			case 2:
				c.Remove(p)
				delete(model, p)
			}
			if c.Len() > capPages || c.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// applyCacheOps drives c and the pointer-linked oracle in lock step with the
// operation sequence data encodes, two bytes per operation: an opcode and a
// page (or capacity). Every result an operation returns must agree. Pages
// stay below 192, three words of the residency index, so that runs form,
// merge and split often, also across word boundaries.
func applyCacheOps(t *testing.T, c *PageCache, ref *refCache, data []byte) {
	t.Helper()
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		pg := mem.PageID(arg % 192)
		var got, want [3]bool
		switch op % 8 {
		case 0, 1:
			var victims []Evicted
			if v, ok := c.Insert(pg, op&8 != 0, op&16 != 0); ok {
				victims = append(victims, v)
			}
			if w := ref.Insert(pg, op&8 != 0, op&16 != 0); !slices.Equal(victims, w) {
				t.Fatalf("op %d: Insert(%d) evicted %+v, oracle %+v", i/2, pg, victims, w)
			}
		case 2:
			got[0], got[1], got[2] = c.Lookup(pg)
			want[0], want[1], want[2] = ref.Lookup(pg)
		case 3:
			got[0], got[1] = c.Remove(pg)
			want[0], want[1] = ref.Remove(pg)
		case 4:
			got[0] = c.SetWritable(pg, op&8 != 0)
			want[0] = ref.SetWritable(pg, op&8 != 0)
		case 5: // shrink or grow; 0 = unbounded
			// The victims show as what is left: same population, same
			// MRU order.
			c.SetCapacity(int(arg % 48))
			ref.SetCapacity(int(arg % 48))
			checkCacheState(t, c, ref)
		case 6:
			if arg%16 == 0 { // rare, or nothing ever accumulates
				c.Clear()
				ref.Clear()
			}
		case 7:
			if op&8 != 0 {
				c.ClearDirty(pg)
				ref.ClearDirty(pg)
				break
			}
			got[0], want[0] = c.MarkDirty(pg), ref.MarkDirty(pg)
		}
		if got != want {
			t.Fatalf("op %d (%d on page %d) returned %v, oracle %v", i/2, op%8, pg, got, want)
		}
	}
}

// checkCacheState compares c with the oracle — population, bound, MRU→LRU
// order with every bit, residency — checks the residency and permission
// bitsets against the table, and compares its run emitter with both the
// oracle's and the independent reference: collect Range's MRU-ordered
// entries and let netmodel.EncodeRuns sort and compress them.
func checkCacheState(t *testing.T, c *PageCache, ref *refCache) {
	t.Helper()
	if c.Len() != ref.Len() || c.capacity != ref.capacity {
		t.Fatalf("Len/Capacity = %d/%d, oracle %d/%d", c.Len(), c.capacity, ref.Len(), ref.capacity)
	}
	var order, refOrder []refNode
	var entries []netmodel.PageEntry
	c.Range(func(p mem.PageID, w, d bool) bool {
		order = append(order, refNode{page: p, writable: w, dirty: d})
		entries = append(entries, netmodel.PageEntry{ID: uint64(p), Writable: w})
		return true
	})
	ref.Range(func(p mem.PageID, w, d bool) bool {
		refOrder = append(refOrder, refNode{page: p, writable: w, dirty: d})
		return true
	})
	if !slices.Equal(order, refOrder) {
		t.Fatalf("MRU order %+v, oracle %+v", order, refOrder)
	}
	for p := mem.PageID(0); p < 200; p++ {
		if c.Contains(p) != ref.Contains(p) {
			t.Fatalf("Contains(%d) = %v, oracle %v", p, c.Contains(p), ref.Contains(p))
		}
	}
	if len(c.words) != (len(c.tab)+63)/64 {
		t.Fatalf("bitsets of %d words for a table of %d pages", len(c.words), len(c.tab))
	}
	for p := 0; p < 64*len(c.words); p++ {
		var n cacheEntry
		if p < len(c.tab) {
			n = c.tab[p]
		}
		w := c.words[p/64]
		res, wr := w.res>>(p%64)&1 != 0, w.wr>>(p%64)&1 != 0
		if res != n.resident || wr != n.writable {
			t.Fatalf("page %d: res/wr bits %v/%v, table resident/writable %v/%v", p, res, wr, n.resident, n.writable)
		}
	}
	want, err := netmodel.EncodeRuns(entries)
	if err != nil {
		t.Fatalf("reference encoding failed: %v", err)
	}
	// A non-empty destination must be kept and never merged into.
	prefix := netmodel.PageRun{Start: 0, Count: 64, Writable: true}
	got := c.AppendRuns([]netmodel.PageRun{prefix})
	if got[0] != prefix {
		t.Fatalf("AppendRuns changed the destination's prefix: %+v", got[0])
	}
	got = got[1:]
	if !slices.Equal(got, want) {
		t.Fatalf("AppendRuns = %+v, reference %+v", got, want)
	}
	if w := ref.AppendRuns(nil); !slices.Equal(got, w) {
		t.Fatalf("AppendRuns = %+v, oracle %+v", got, w)
	}
	pages := 0
	for _, run := range got {
		pages += int(run.Count)
	}
	if pages != c.Len() {
		t.Fatalf("runs cover %d pages, Len() = %d", pages, c.Len())
	}
	if err := netmodel.CheckRuns(got); err != nil {
		t.Fatalf("emitted runs are malformed: %v", err)
	}
}

// The index-linked table must behave exactly like the pointer-linked cache
// it replaced — same victims, same order, same runs — and its run emitter
// must agree with collect-sort-compress, after any operation history: both
// are checked after every operation of seeded random sequences.
func TestCacheRunsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		capPages := int(seed % 3 * 20) // unbounded, 20 and 40 pages
		c, ref := NewPageCache(capPages), newRefCache(capPages)
		ops := make([]byte, 2)
		for i := 0; i < 600; i++ {
			r.Read(ops)
			applyCacheOps(t, c, ref, ops)
			checkCacheState(t, c, ref)
		}
	}
}

func FuzzCacheRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 8, 2, 0, 3, 8, 5, 3, 2})         // two runs, then a hole splits one
	f.Add([]byte{8, 1, 8, 2, 12, 1, 5, 1, 6, 0})        // downgrade, shrink, clear
	f.Add([]byte{0, 63, 8, 0, 2, 63, 5, 1, 8, 62})      // a word's first and last page, eviction by capacity
	f.Add([]byte{16, 4, 16, 5, 5, 1, 5, 40, 15, 5})     // dirty victims on shrink, grow back, clean
	f.Add([]byte{8, 62, 8, 63, 8, 64, 8, 65})           // a run crossing page 63→64
	f.Add([]byte{8, 62, 8, 63, 0, 64, 0, 65, 12, 64})   // a permission flip at page 64, then healed
	f.Add([]byte{8, 127, 8, 128})                       // residency only at pages 127 and 128
	f.Add([]byte{8, 64, 8, 65})                         // first page 64, where the destination's prefix ends
	f.Add([]byte{8, 100, 8, 98, 8, 99, 8, 101, 0, 150}) // a 101-page table, then doubled to 202
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ref := NewPageCache(0), newRefCache(0)
		applyCacheOps(t, c, ref, data)
		checkCacheState(t, c, ref)
	})
}

// The oracle: the pointer-linked cache this package used before the
// index-linked table — one heap node per resident page, a slice of victims
// per insertion — kept as the behaviour the table must reproduce.

type refCache struct {
	capacity int        // in pages; 0 = unlimited
	nodes    []*refNode // page-indexed
	count    int
	head     *refNode // most recently used
	tail     *refNode // least recently used
}

type refNode struct {
	page       mem.PageID
	writable   bool
	dirty      bool
	prev, next *refNode
}

// newRefCache returns a cache bounded to capPages pages (0 = unlimited).
func newRefCache(capPages int) *refCache {
	return &refCache{capacity: capPages}
}

// node returns the resident node for p, or nil.
func (c *refCache) node(p mem.PageID) *refNode {
	if p < mem.PageID(len(c.nodes)) {
		return c.nodes[p]
	}
	return nil
}

// setNode installs n as page p's node, growing the table as needed.
func (c *refCache) setNode(p mem.PageID, n *refNode) {
	if p >= mem.PageID(len(c.nodes)) {
		size := int(p) + 1
		if d := 2 * len(c.nodes); d > size {
			size = d
		}
		grown := make([]*refNode, size)
		copy(grown, c.nodes)
		c.nodes = grown
	}
	c.nodes[p] = n
}

// Len returns the number of resident pages.
func (c *refCache) Len() int { return c.count }

// Capacity returns the page bound (0 = unlimited).
func (c *refCache) Capacity() int { return c.capacity }

// Contains reports residency without touching LRU order.
func (c *refCache) Contains(p mem.PageID) bool {
	return c.node(p) != nil
}

// hit returns p's node, bumped to MRU, or nil when p is not resident.
func (c *refCache) hit(p mem.PageID) *refNode {
	n := c.node(p)
	if n != nil {
		c.moveToFront(n)
	}
	return n
}

// Lookup returns the page's permission bits and bumps it to MRU.
func (c *refCache) Lookup(p mem.PageID) (writable, dirty, ok bool) {
	n := c.hit(p)
	if n == nil {
		return false, false, false
	}
	return n.writable, n.dirty, true
}

// Insert adds (or refreshes) a page with the given bits and returns any
// evicted victims. Inserting an existing page overwrites its bits.
func (c *refCache) Insert(p mem.PageID, writable, dirty bool) []Evicted {
	if n := c.node(p); n != nil {
		n.writable, n.dirty = writable, dirty
		c.moveToFront(n)
		return nil
	}
	n := &refNode{page: p, writable: writable, dirty: dirty}
	c.setNode(p, n)
	c.count++
	c.pushFront(n)
	var out []Evicted
	for c.capacity > 0 && c.count > c.capacity {
		v := c.tail
		c.unlink(v)
		c.nodes[v.page] = nil
		c.count--
		out = append(out, Evicted{Page: v.page, Dirty: v.dirty})
	}
	return out
}

// Remove evicts a specific page (e.g. a coherence invalidation), returning
// its dirty bit.
func (c *refCache) Remove(p mem.PageID) (dirty, ok bool) {
	n := c.node(p)
	if n == nil {
		return false, false
	}
	c.unlink(n)
	c.nodes[p] = nil
	c.count--
	return n.dirty, true
}

// SetWritable updates the page's write permission (coherence downgrade or
// upgrade); it reports whether the page was resident.
func (c *refCache) SetWritable(p mem.PageID, w bool) bool {
	n := c.node(p)
	if n == nil {
		return false
	}
	n.writable = w
	return true
}

// MarkDirty sets the dirty bit; it reports whether the page was resident.
func (c *refCache) MarkDirty(p mem.PageID) bool {
	n := c.node(p)
	if n == nil {
		return false
	}
	n.dirty = true
	return true
}

// ClearDirty resets the dirty bit (after a write-back / sync).
func (c *refCache) ClearDirty(p mem.PageID) {
	if n := c.node(p); n != nil {
		n.dirty = false
	}
}

// Range calls f for every resident page from MRU to LRU until f returns
// false. f must not mutate the cache.
func (c *refCache) Range(f func(p mem.PageID, writable, dirty bool) bool) {
	for n := c.head; n != nil; n = n.next {
		if !f(n.page, n.writable, n.dirty) {
			return
		}
	}
}

// AppendRuns appends the resident set to dst as ascending runs of pages
// sharing a write permission.
func (c *refCache) AppendRuns(dst []netmodel.PageRun) []netmodel.PageRun {
	base := len(dst)
	left := c.count // stop at the last resident page, not the table's end
	for p := 0; left > 0; p++ {
		n := c.nodes[p]
		if n == nil {
			continue
		}
		left--
		if k := len(dst) - 1; k >= base && dst[k].Writable == n.writable &&
			dst[k].Start+uint64(dst[k].Count) == uint64(p) {
			dst[k].Count++
			continue
		}
		dst = append(dst, netmodel.PageRun{Start: uint64(p), Count: 1, Writable: n.writable})
	}
	return dst
}

// SetCapacity rebounds the cache, evicting LRU pages down to the new bound.
func (c *refCache) SetCapacity(pages int) []Evicted {
	c.capacity = pages
	var out []Evicted
	for c.capacity > 0 && c.count > c.capacity {
		v := c.tail
		c.unlink(v)
		c.nodes[v.page] = nil
		c.count--
		out = append(out, Evicted{Page: v.page, Dirty: v.dirty})
	}
	return out
}

// Clear drops every resident page.
func (c *refCache) Clear() {
	c.nodes = nil
	c.count = 0
	c.head, c.tail = nil, nil
}

func (c *refCache) pushFront(n *refNode) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *refCache) unlink(n *refNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *refCache) moveToFront(n *refNode) {
	if c.head == n {
		return
	}
	// Not the head, so n has a predecessor and the list a head: the
	// unlink/pushFront pair without their empty-end cases.
	n.prev.next = n.next
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, c.head
	c.head.prev = n
	c.head = n
}
