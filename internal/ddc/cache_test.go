package ddc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"teleport/internal/mem"
	"teleport/internal/netmodel"
)

func TestCacheInsertLookup(t *testing.T) {
	c := NewPageCache(2)
	if ev := c.Insert(1, true, false); len(ev) != 0 {
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
	ev := c.Insert(3, false, false)
	if len(ev) != 1 || ev[0].Page != 2 || !ev[0].Dirty {
		t.Fatalf("evicted = %+v", ev)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestCacheUnlimited(t *testing.T) {
	c := NewPageCache(0)
	for i := 0; i < 1000; i++ {
		if ev := c.Insert(mem.PageID(i), false, false); len(ev) != 0 {
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
				for _, v := range c.Insert(p, false, false) {
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

// applyCacheOps drives c with the operation sequence data encodes, two bytes
// per operation: an opcode and a page (or capacity). Pages stay below 64 so
// that runs form, merge and split often.
func applyCacheOps(c *PageCache, data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		pg := mem.PageID(arg % 64)
		switch op % 8 {
		case 0, 1:
			c.Insert(pg, op&8 != 0, op&16 != 0)
		case 2:
			c.Lookup(pg)
		case 3:
			c.Remove(pg)
		case 4:
			c.SetWritable(pg, op&8 != 0)
		case 5:
			c.SetCapacity(int(arg % 48)) // 0 = unbounded
		case 6:
			if arg%16 == 0 { // rare, or nothing ever accumulates
				c.Clear()
			}
		case 7:
			c.MarkDirty(pg)
		}
	}
}

// checkCacheRuns compares the emitter with the reference: collect Range's
// MRU-ordered entries and let netmodel.EncodeRuns sort and compress them.
func checkCacheRuns(t *testing.T, c *PageCache) {
	t.Helper()
	var entries []netmodel.PageEntry
	c.Range(func(p mem.PageID, w, _ bool) bool {
		entries = append(entries, netmodel.PageEntry{ID: uint64(p), Writable: w})
		return true
	})
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
	if len(got) != len(want) {
		t.Fatalf("AppendRuns = %+v, reference %+v", got, want)
	}
	pages := 0
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("run %d: AppendRuns = %+v, reference %+v", i, got[i], want[i])
		}
		pages += int(got[i].Count)
	}
	if pages != c.Len() {
		t.Fatalf("runs cover %d pages, Len() = %d", pages, c.Len())
	}
	if err := netmodel.CheckRuns(got); err != nil {
		t.Fatalf("emitted runs are malformed: %v", err)
	}
}

// The run emitter must agree with collect-sort-compress after any operation
// history, checked after every operation of seeded random sequences.
func TestCacheRunsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := NewPageCache(int(seed % 3 * 20)) // unbounded, 20 and 40 pages
		ops := make([]byte, 2)
		for i := 0; i < 400; i++ {
			r.Read(ops)
			applyCacheOps(c, ops)
			checkCacheRuns(t, c)
		}
	}
}

func FuzzCacheRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 8, 2, 0, 3, 8, 5, 3, 2})    // two runs, then a hole splits one
	f.Add([]byte{8, 1, 8, 2, 12, 1, 5, 1, 6, 0})   // downgrade, shrink, clear
	f.Add([]byte{0, 63, 8, 0, 2, 63, 5, 1, 8, 62}) // table edges, eviction by capacity
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewPageCache(0)
		applyCacheOps(c, data)
		checkCacheRuns(t, c)
	})
}
