package ddc

import (
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
	// nodes is page-indexed (the address space is dense, so direct indexing
	// beats a hash map on the per-access lookup path); count tracks the
	// resident population.
	nodes []*cacheNode
	count int
	head  *cacheNode // most recently used
	tail  *cacheNode // least recently used
}

type cacheNode struct {
	page       mem.PageID
	writable   bool
	dirty      bool
	prev, next *cacheNode
}

// Evicted describes a page pushed out by an insertion.
type Evicted struct {
	Page  mem.PageID
	Dirty bool
}

// NewPageCache returns a cache bounded to capPages pages (0 = unlimited).
func NewPageCache(capPages int) *PageCache {
	return &PageCache{capacity: capPages}
}

// node returns the resident node for p, or nil.
func (c *PageCache) node(p mem.PageID) *cacheNode {
	if p < mem.PageID(len(c.nodes)) {
		return c.nodes[p]
	}
	return nil
}

// setNode installs n as page p's node, growing the table as needed.
func (c *PageCache) setNode(p mem.PageID, n *cacheNode) {
	if p >= mem.PageID(len(c.nodes)) {
		size := int(p) + 1
		if d := 2 * len(c.nodes); d > size {
			size = d
		}
		grown := make([]*cacheNode, size)
		copy(grown, c.nodes)
		c.nodes = grown
	}
	c.nodes[p] = n
}

// Len returns the number of resident pages.
func (c *PageCache) Len() int { return c.count }

// Capacity returns the page bound (0 = unlimited).
func (c *PageCache) Capacity() int { return c.capacity }

// Contains reports residency without touching LRU order.
func (c *PageCache) Contains(p mem.PageID) bool {
	return c.node(p) != nil
}

// hit returns p's node, bumped to MRU, or nil when p is not resident.
func (c *PageCache) hit(p mem.PageID) *cacheNode {
	n := c.node(p)
	if n != nil {
		c.moveToFront(n)
	}
	return n
}

// Lookup returns the page's permission bits and bumps it to MRU.
func (c *PageCache) Lookup(p mem.PageID) (writable, dirty, ok bool) {
	n := c.hit(p)
	if n == nil {
		return false, false, false
	}
	return n.writable, n.dirty, true
}

// Insert adds (or refreshes) a page with the given bits and returns any
// evicted victims. Inserting an existing page overwrites its bits.
func (c *PageCache) Insert(p mem.PageID, writable, dirty bool) []Evicted {
	if n := c.node(p); n != nil {
		n.writable, n.dirty = writable, dirty
		c.moveToFront(n)
		return nil
	}
	n := &cacheNode{page: p, writable: writable, dirty: dirty}
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
func (c *PageCache) Remove(p mem.PageID) (dirty, ok bool) {
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
func (c *PageCache) SetWritable(p mem.PageID, w bool) bool {
	n := c.node(p)
	if n == nil {
		return false
	}
	n.writable = w
	return true
}

// MarkDirty sets the dirty bit; it reports whether the page was resident.
func (c *PageCache) MarkDirty(p mem.PageID) bool {
	n := c.node(p)
	if n == nil {
		return false
	}
	n.dirty = true
	return true
}

// ClearDirty resets the dirty bit (after a write-back / sync).
func (c *PageCache) ClearDirty(p mem.PageID) {
	if n := c.node(p); n != nil {
		n.dirty = false
	}
}

// Range calls f for every resident page from MRU to LRU until f returns
// false. f must not mutate the cache.
func (c *PageCache) Range(f func(p mem.PageID, writable, dirty bool) bool) {
	for n := c.head; n != nil; n = n.next {
		if !f(n.page, n.writable, n.dirty) {
			return
		}
	}
}

// AppendRuns appends the resident set to dst as §6's run-length-encoded
// list — ranges of consecutive pages sharing a write permission, in
// ascending page order — read straight off the page-indexed table, so no
// caller has to collect and sort Range's MRU-ordered entries. The result
// equals netmodel.EncodeRuns over those entries, and its Counts sum to Len().
func (c *PageCache) AppendRuns(dst []netmodel.PageRun) []netmodel.PageRun {
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

// SetCapacity rebounds the cache, evicting LRU pages if it shrinks below
// its current population. It returns the evicted pages so callers can
// account for write-backs. Used to size a platform's cache to a freshly
// loaded working set.
func (c *PageCache) SetCapacity(pages int) []Evicted {
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

// Clear drops every resident page (whole-cache invalidation, used by the
// naive process-migration mode of Figure 6).
func (c *PageCache) Clear() {
	c.nodes = nil
	c.count = 0
	c.head, c.tail = nil, nil
}

func (c *PageCache) pushFront(n *cacheNode) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *PageCache) unlink(n *cacheNode) {
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

func (c *PageCache) moveToFront(n *cacheNode) {
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
