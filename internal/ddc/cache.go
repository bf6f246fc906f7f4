package ddc

import (
	"math"
	"math/bits"

	"teleport/internal/mem"
	"teleport/internal/netmodel"
)

// PageCache is an LRU set of resident pages with per-page permission and
// dirty bits. It serves three roles, configured by capacity:
//   - the compute pool's local cache (the DDC's "compute-local memory"),
//   - a monolithic server's page cache over its swap device,
//   - the memory pool's DRAM residency in front of the storage pool.
//
// It tracks state and cost-relevant bits only; page contents stay in the
// process's ground-truth mem.Space.
type PageCache struct {
	capacity int // in pages; 0 = unlimited
	// tab is page-indexed (the address space is dense, so direct indexing
	// beats a hash map on the per-access lookup path) and holds the LRU
	// list's links as page indices beside each page's bits: a fault
	// allocates nothing, and the garbage collector never scans the table,
	// because it holds no pointers. count tracks the resident population.
	tab   []cacheEntry
	count int
	head  int32 // most recently used, noPage when empty
	tail  int32 // least recently used

	// words indexes the table for AppendRuns, 64 pages a word: bit p%64 of
	// words[p/64].res is set while page p is resident, and of .wr while it
	// is also writable. It changes only where those bits of tab change, and
	// nothing on the per-access path reads it: a hit would pay one more load.
	words []cacheWord

	// space, when set, is the address space the cached pages belong to: the
	// table is sized to its extent the first time it has to grow.
	space *mem.Space
}

// cacheEntry is one page's slot: meaningful only while resident.
type cacheEntry struct {
	prev, next int32 // neighbours towards MRU and LRU, noPage at the ends
	resident   bool
	writable   bool
	dirty      bool
}

// cacheWord is 64 pages' residency and write permission; wr ⊆ res.
type cacheWord struct{ res, wr uint64 }

// noPage ends the LRU list.
const noPage int32 = -1

// Evicted describes a page pushed out by an insertion.
type Evicted struct {
	Page  mem.PageID
	Dirty bool
}

// NewPageCache returns a cache bounded to capPages pages (0 = unlimited).
func NewPageCache(capPages int) *PageCache {
	return &PageCache{capacity: capPages, head: noPage, tail: noPage}
}

// entry returns p's slot when p is resident, or nil. The pointer is valid
// until the next Insert, which may grow the table.
func (c *PageCache) entry(p mem.PageID) *cacheEntry {
	if p < mem.PageID(len(c.tab)) {
		if n := &c.tab[p]; n.resident {
			return n
		}
	}
	return nil
}

// grow extends the table to hold page p: to the space's allocation extent
// when that is known, with doubling as a floor, so that a table is sized
// about once however many pages fault in.
func (c *PageCache) grow(p mem.PageID) {
	if p > math.MaxInt32 {
		panic("ddc: page beyond the cache table's index range")
	}
	size := int(p) + 1
	if c.space != nil {
		if _, last, ok := c.space.Extent(); ok && int(last) >= size {
			size = int(last) + 1
		}
	}
	if d := 2 * len(c.tab); d > size {
		size = d
	}
	grown := make([]cacheEntry, size)
	copy(grown, c.tab)
	c.tab = grown
	c.words = append(c.words, make([]cacheWord, (size+63)/64-len(c.words))...)
}

// mark records in the index that page p is resident with the given write
// permission.
func (c *PageCache) mark(p int32, writable bool) {
	w, m := &c.words[uint32(p)/64], uint64(1)<<(uint32(p)%64)
	w.res |= m
	if writable {
		w.wr |= m
	} else {
		w.wr &^= m
	}
}

// unmark records in the index that page p is not resident.
func (c *PageCache) unmark(p int32) {
	w, m := &c.words[uint32(p)/64], uint64(1)<<(uint32(p)%64)
	w.res &^= m
	w.wr &^= m
}

// Len returns the number of resident pages.
func (c *PageCache) Len() int { return c.count }

// Contains reports residency without touching LRU order.
func (c *PageCache) Contains(p mem.PageID) bool {
	return c.entry(p) != nil
}

// take is Process.PoolHit on a bounded pool: whether p is resident, and with
// apply, a hit on it — p bumped to MRU and, for a write, marked dirty. It is a
// function of its own so that PoolHit, and with it the unbounded pool's answer,
// inlines into every caller.
func (c *PageCache) take(p mem.PageID, write, apply bool) bool {
	n := c.entry(p)
	if n != nil && apply {
		c.moveToFront(int32(p))
		n.dirty = n.dirty || write
	}
	return n != nil
}

// Lookup returns the page's permission bits and bumps it to MRU.
func (c *PageCache) Lookup(p mem.PageID) (writable, dirty, ok bool) {
	n := c.entry(p)
	if n == nil {
		return false, false, false
	}
	c.moveToFront(int32(p))
	return n.writable, n.dirty, true
}

// Insert adds (or refreshes) a page with the given bits and returns the
// page it pushed out, if any. Inserting an existing page overwrites its
// bits. The population never exceeds a bounded cache's capacity between
// calls (SetCapacity evicts down to it), so one insertion evicts at most one
// page — and the victim is returned by value: callers charge its write-back
// with calls that can yield to a simulated thread that inserts into this
// same cache, which would overwrite any buffer the cache owned.
func (c *PageCache) Insert(p mem.PageID, writable, dirty bool) (victim Evicted, evicted bool) {
	if n := c.entry(p); n != nil {
		n.writable, n.dirty = writable, dirty
		c.mark(int32(p), writable)
		c.moveToFront(int32(p))
		return Evicted{}, false
	}
	if p >= mem.PageID(len(c.tab)) {
		c.grow(p)
	}
	c.tab[p] = cacheEntry{resident: true, writable: writable, dirty: dirty}
	c.mark(int32(p), writable)
	c.count++
	c.pushFront(int32(p))
	if c.capacity > 0 && c.count > c.capacity {
		return c.evictLRU(), true
	}
	return Evicted{}, false
}

// evictLRU drops the least recently used page.
func (c *PageCache) evictLRU() Evicted {
	v := c.tail
	dirty := c.tab[v].dirty
	c.unlink(v)
	c.tab[v] = cacheEntry{}
	c.unmark(v)
	c.count--
	return Evicted{Page: mem.PageID(v), Dirty: dirty}
}

// Remove evicts a specific page (e.g. a coherence invalidation), returning
// its dirty bit.
func (c *PageCache) Remove(p mem.PageID) (dirty, ok bool) {
	n := c.entry(p)
	if n == nil {
		return false, false
	}
	dirty = n.dirty
	c.unlink(int32(p))
	*n = cacheEntry{}
	c.unmark(int32(p))
	c.count--
	return dirty, true
}

// SetWritable updates the page's write permission (coherence downgrade or
// upgrade); it reports whether the page was resident.
func (c *PageCache) SetWritable(p mem.PageID, w bool) bool {
	n := c.entry(p)
	if n == nil {
		return false
	}
	n.writable = w
	c.mark(int32(p), w)
	return true
}

// MarkDirty sets the dirty bit; it reports whether the page was resident.
func (c *PageCache) MarkDirty(p mem.PageID) bool {
	n := c.entry(p)
	if n == nil {
		return false
	}
	n.dirty = true
	return true
}

// ClearDirty resets the dirty bit (after a write-back / sync).
func (c *PageCache) ClearDirty(p mem.PageID) {
	if n := c.entry(p); n != nil {
		n.dirty = false
	}
}

// Range calls f for every resident page from MRU to LRU until f returns
// false. f must not mutate the cache.
func (c *PageCache) Range(f func(p mem.PageID, writable, dirty bool) bool) {
	for i := c.head; i != noPage; i = c.tab[i].next {
		if n := &c.tab[i]; !f(mem.PageID(i), n.writable, n.dirty) {
			return
		}
	}
}

// AppendRuns appends the resident set to dst as §6's run-length-encoded
// list — ranges of consecutive pages sharing a write permission, in
// ascending page order — read off the residency and permission bitsets a
// word at a time, so no caller has to collect and sort Range's MRU-ordered
// entries and the walk costs table words plus runs, not pages. The result
// equals netmodel.EncodeRuns over those entries, and its Counts sum to Len().
func (c *PageCache) AppendRuns(dst []netmodel.PageRun) []netmodel.PageRun {
	base := len(dst)
	left := c.count // stop at the last resident page, not the table's end
	for w := 0; left > 0; w++ {
		res, wr := c.words[w].res, c.words[w].wr
		for todo := res; todo != 0; {
			i := bits.TrailingZeros64(todo)
			writable := wr>>i&1 != 0
			same := res &^ wr
			if writable {
				same = res & wr
			}
			n := bits.TrailingZeros64(^(same >> i)) // this permission's run within the word
			todo &^= (uint64(1)<<n - 1) << i
			left -= n
			p := uint64(w*64 + i)
			if k := len(dst) - 1; k >= base && dst[k].Writable == writable &&
				dst[k].Start+uint64(dst[k].Count) == p {
				dst[k].Count += uint32(n)
				continue
			}
			dst = append(dst, netmodel.PageRun{Start: p, Count: uint32(n), Writable: writable})
		}
	}
	return dst
}

// SetCapacity rebounds the cache, dropping LRU pages if it shrinks below
// its current population. Used to size a platform's cache to a freshly
// loaded working set; the dropped pages are not reported because neither
// caller (ResizeCache, ResizePool) accounts for them.
func (c *PageCache) SetCapacity(pages int) {
	c.capacity = pages
	for c.capacity > 0 && c.count > c.capacity {
		c.evictLRU()
	}
}

// Clear drops every resident page (whole-cache invalidation, used by the
// naive process-migration mode of Figure 6). The table's storage is kept.
func (c *PageCache) Clear() {
	for i := c.head; i != noPage; {
		next := c.tab[i].next
		c.tab[i] = cacheEntry{}
		i = next
	}
	clear(c.words)
	c.count = 0
	c.head, c.tail = noPage, noPage
}

func (c *PageCache) pushFront(i int32) {
	n := &c.tab[i]
	n.prev, n.next = noPage, c.head
	if c.head != noPage {
		c.tab[c.head].prev = i
	}
	c.head = i
	if c.tail == noPage {
		c.tail = i
	}
}

func (c *PageCache) unlink(i int32) {
	n := &c.tab[i]
	if n.prev != noPage {
		c.tab[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != noPage {
		c.tab[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *PageCache) moveToFront(i int32) {
	if c.head == i {
		return
	}
	// Not the head, so i has a predecessor and the list a head: the
	// unlink/pushFront pair without their empty-end cases.
	n := &c.tab[i]
	c.tab[n.prev].next = n.next
	if n.next != noPage {
		c.tab[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = noPage, c.head
	c.tab[c.head].prev = i
	c.head = i
}
