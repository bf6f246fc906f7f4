// Package mem implements the paged virtual memory that a disaggregated
// process lives in: 4 KB pages, page-table entries with present/writable/
// dirty bits, and a ground-truth address space holding the actual bytes.
//
// The bytes in a Space are the single physical copy of the process's data
// (conceptually, the frames in the memory pool). Residency layers — the
// compute-local page cache, the memory pool's DRAM-vs-storage residency, and
// TELEPORT's temporary-context page table — are cost/permission models
// maintained by internal/ddc and internal/core on top of this package.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// Page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
)

// Addr is a virtual address in a simulated process.
type Addr uint64

// PageID identifies one virtual page.
type PageID uint64

// PageOf returns the page containing a.
func PageOf(a Addr) PageID { return PageID(a >> PageShift) }

// PageSpan returns the pages [first, last] covered by the byte range
// [addr, addr+n).
func PageSpan(addr Addr, n int) (first, last PageID) {
	if n <= 0 {
		p := PageOf(addr)
		return p, p
	}
	return PageOf(addr), PageOf(addr + Addr(n) - 1)
}

// PTE is a page-table entry; Dirty tracks pending write-back state (§4.1:
// "Evictions ... preserve the correct page table entry dirty bits").
type PTE struct {
	Dirty bool
}

// PageTable maps pages to entries. Pages without an entry are absent (∅ in
// the paper's state notation).
type PageTable struct {
	m map[PageID]*PTE
}

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{m: make(map[PageID]*PTE)} }

// Lookup returns the entry for p, or (nil, false).
func (pt *PageTable) Lookup(p PageID) (*PTE, bool) {
	e, ok := pt.m[p]
	return e, ok
}

// Ensure returns the entry for p, creating an all-false entry if absent.
func (pt *PageTable) Ensure(p PageID) *PTE {
	if e, ok := pt.m[p]; ok {
		return e
	}
	e := &PTE{}
	pt.m[p] = e
	return e
}

// Space is a process's ground-truth address space: a bump allocator over
// demand-created 4 KB frames.
type Space struct {
	next Addr
	// frames is the page-indexed frame table: frames[p] is page p's backing
	// bytes, nil until first touch. The space is a dense bump allocator
	// starting just above address 0, so direct indexing replaces the hash
	// map a sparse space would need — the frame lookup on the simulator's
	// access fast path is a bounds check and a load. An entry is created on
	// first touch and replaced at most once, when the first store to a page
	// still backed by an attached image's frame gives the page a frame of its
	// own (own); moved is told, so that whoever borrowed the old frame (Frame)
	// can follow. In a space without an image no entry is ever replaced.
	frames    [][]byte
	allocated int64

	// arena is where the space's pages come from and, once dead, go back to
	// (newFrame, own, SnapshotPageInto; Recycle, Release): private, unless
	// Share named one that outlives the space. released marks a space whose
	// frames went back: its frame table is nil, so every access takes
	// newFrame's cold path and panics there.
	arena    *Arena
	private  Arena
	released bool

	// img is the image the space was attached to, sharedEnd the page after the
	// image's last — a page at or past it was never shared — and moved the
	// attacher's callback for a page leaving the image.
	img       *Image
	sharedEnd PageID
	moved     func(from, to []byte)
}

// Arena is a free list of page buffers: what a Space draws its frames,
// copy-on-write copies and pre-images from, and what takes them back when a
// pre-image is dead (Recycle) or the whole space is (Release). Spaces that
// share an arena (Space.Share) run on each other's dead pages, on any number
// of goroutines. The zero value is an empty arena. A buffer on the list holds
// whatever its last user left in it.
type Arena struct {
	mu   sync.Mutex
	free [][]byte
}

// get hands out a page: zeroed — a new frame must read as untouched memory —
// unless the caller is about to overwrite every byte of it.
func (a *Arena) get(zeroed bool) []byte {
	a.mu.Lock()
	b := a.pop()
	a.mu.Unlock()
	if b == nil {
		return make([]byte, PageSize)
	}
	if zeroed {
		clear(b)
	}
	return b
}

// pop takes the page last put on the free list, or returns nil when the list
// is empty. The caller holds mu.
func (a *Arena) pop() []byte {
	n := len(a.free) - 1
	if n < 0 {
		return nil
	}
	b := a.free[n]
	a.free[n] = nil
	a.free = a.free[:n]
	return b
}

// fill gives every nil entry of frames a zeroed page from the free list, as
// far as the list goes, taking and clearing them under one lock, and returns
// how many entries it left nil.
func (a *Arena) fill(frames [][]byte) (left int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, f := range frames {
		if f != nil {
			continue
		}
		if b := a.pop(); b != nil {
			clear(b)
			frames[i] = b
		} else {
			left++
		}
	}
	return left
}

// put takes back pages nothing reads any more.
func (a *Arena) put(pages ...[]byte) {
	a.mu.Lock()
	a.free = append(a.free, pages...)
	a.mu.Unlock()
}

// Image is the frozen contents of a Space: its populated frames and its
// allocator's position. It never changes, so any number of spaces — on any
// number of goroutines — may be attached to one image at once.
type Image struct {
	frames    [][]byte
	next      Addr
	allocated int64
}

// Freeze moves the space's contents into an image and leaves the space empty.
// The image keeps the allocator's position as well as the bytes, so a space
// attached to it hands out the addresses the frozen one would have gone on to.
func (s *Space) Freeze() *Image {
	img := &Image{next: s.next, allocated: s.allocated}
	if _, last, ok := s.Extent(); ok {
		// Nothing past the allocations is shared, so that what a space
		// allocates after attaching, in pages of its own, is never mistaken
		// for the image's.
		n := min(len(s.frames), int(last)+1)
		for n > 0 && s.frames[n-1] == nil {
			n--
		}
		img.frames = s.frames[:n:n]
	}
	s.frames, s.next, s.allocated = nil, spaceBase, 0
	return img
}

// Attach makes the space, which must be empty, a copy-on-write clone of img:
// it takes the image's frame table and allocator position, shares every frame
// until the first store to its page, and pays nothing for a page it never
// touches. moved, if not nil, is called when a store gives a page a frame of
// its own, with the image's frame and the copy that replaced it: borrowed
// frames (Frame) are not followed by the space, so a holder that may store
// through one, or read after a store, repoints it there.
func (s *Space) Attach(img *Image, moved func(from, to []byte)) {
	if s.next != spaceBase || s.frames != nil {
		panic("mem: Attach to a space in use")
	}
	s.frames = append([][]byte(nil), img.frames...)
	s.next, s.allocated = img.next, img.allocated
	s.img, s.sharedEnd, s.moved = img, PageID(len(img.frames)), moved
}

// SharedEnd returns the page after the last the space may share with an
// image: 0 unless attached. A store to a borrowed frame of a page below it
// goes through Own first.
func (s *Space) SharedEnd() PageID { return s.sharedEnd }

// spaceBase leaves the low addresses unused so that Addr(0) can mean "nil".
const spaceBase Addr = 1 << 20

// NewSpace returns an empty address space, drawing pages from an arena of its
// own.
func NewSpace() *Space {
	s := &Space{next: spaceBase}
	s.arena = &s.private
	return s
}

// Share makes the space, which no access has touched yet, draw its pages from
// a — and hand them back to it — in place of its own arena.
func (s *Space) Share(a *Arena) {
	if s.frames != nil {
		panic("mem: Share on a space in use")
	}
	s.arena = a
}

// Recycle takes back a pre-image SnapshotPageInto(p, nil) returned, which the
// caller no longer reads.
func (s *Space) Recycle(buf []byte) { s.arena.put(buf) }

// Release ends the space's life: every frame that is the space's alone goes
// back to the arena — never one it still shares with its image, which its
// siblings read — and any later access panics. What the space allocated
// (Allocated, Pages, Extent) stays on record.
func (s *Space) Release() {
	owned := s.frames[:0] // filtered in place: the table dies here
	for p, f := range s.frames {
		if f == nil || s.shares(PageID(p), f) {
			continue
		}
		owned = append(owned, f)
	}
	s.arena.put(owned...)
	s.frames, s.released = nil, true
}

// shares reports whether f, page p's frame, is still the frame of the image
// the space is attached to.
func (s *Space) shares(p PageID, f []byte) bool {
	if p >= s.sharedEnd {
		return false
	}
	from := s.img.frames[p]
	return from != nil && &from[0] == &f[0]
}

// Alloc reserves n bytes, 64-byte aligned (so scalar fields never straddle
// cache lines and 8-byte values never straddle pages), and returns the base
// address. Frames materialise lazily on first touch.
func (s *Space) Alloc(n int64, name string) Addr {
	return s.alloc(n, 64, name)
}

// AllocPages reserves n bytes aligned to a page boundary. Used when distinct
// data structures must not share pages (the inverse of the false-sharing
// setup in Figure 7).
func (s *Space) AllocPages(n int64, name string) Addr {
	return s.alloc(n, PageSize, name)
}

func (s *Space) alloc(n, align int64, name string) Addr {
	if n <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%d) of %q", n, name))
	}
	base := (Addr(s.next) + Addr(align-1)) &^ Addr(align-1)
	s.next = base + Addr(n)
	s.allocated += n
	return base
}

// Allocated returns the total bytes allocated so far.
func (s *Space) Allocated() int64 { return s.allocated }

// Pages returns the number of distinct pages spanned by allocations.
func (s *Space) Pages() int64 {
	if s.next == spaceBase {
		return 0
	}
	return int64(PageOf(s.next-1)-PageOf(spaceBase)) + 1
}

// Extent returns the first and last allocated pages. ok is false when
// nothing has been allocated yet.
func (s *Space) Extent() (first, last PageID, ok bool) {
	if s.next == spaceBase {
		return 0, 0, false
	}
	return PageOf(spaceBase), PageOf(s.next - 1), true
}

// frame returns (creating if needed) the backing bytes of page p.
func (s *Space) frame(p PageID) []byte {
	if p < PageID(len(s.frames)) {
		if f := s.frames[p]; f != nil {
			return f
		}
	}
	return s.newFrame(p)
}

// newFrame is the cold path of frame: grow the table and materialise p.
func (s *Space) newFrame(p PageID) []byte {
	if s.released {
		panic("mem: access to a released space")
	}
	s.grow(p)
	f := s.arena.get(true)
	s.frames[p] = f
	return f
}

// grow makes the frame table reach page p. It sizes the table to the
// allocation extent (with doubling as a floor) so touching pages in ascending
// order grows it O(log n) times, not once per page.
func (s *Space) grow(p PageID) {
	if p < PageID(len(s.frames)) {
		return
	}
	n := int(p) + 1
	if s.next > spaceBase {
		if ext := int(PageOf(s.next-1)) + 1; ext > n {
			n = ext
		}
	}
	if d := 2 * len(s.frames); d > n {
		n = d
	}
	grown := make([][]byte, n)
	copy(grown, s.frames)
	s.frames = grown
}

// Populate gives every page of [a, a+n) that has no frame yet a zeroed frame
// of the space's own, for a writer about to fill the whole range: pages the
// arena has free first, the rest cut from one allocation. A page that has a
// frame keeps it, its own or one it shares with an image. Pages touched one at
// a time (Frame, Own) still get one frame each, so a sparse structure never
// holds more than it touches.
func (s *Space) Populate(a Addr, n int64) {
	if s.released {
		panic("mem: access to a released space")
	}
	if n <= 0 {
		return
	}
	first, last := PageOf(a), PageOf(a+Addr(n)-1)
	s.grow(last)
	span := s.frames[first : last+1]
	left := s.arena.fill(span)
	if left == 0 {
		return
	}
	slab := make([]byte, left*PageSize)
	for i, f := range span {
		if f == nil {
			span[i], slab = slab[:PageSize:PageSize], slab[PageSize:]
		}
	}
}

// Frame returns the live backing bytes of page p — a zero-copy borrow of
// the single physical copy, to read from. The slice stays current until a
// store gives a page still shared with an image a frame of its own (Attach's
// moved says so), which in a space without an image is for the life of the
// space: RestorePage copies in place. Callers borrowing a frame bypass the
// paging and cost models entirely; internal/ddc's Env uses this only to move
// the bytes of an access it has already taken through both.
func (s *Space) Frame(p PageID) []byte { return s.frame(p) }

// Own is Frame for storing into: the frame it returns is the space's alone.
func (s *Space) Own(p PageID) []byte {
	if p >= s.sharedEnd && p < PageID(len(s.frames)) {
		if f := s.frames[p]; f != nil {
			return f
		}
	}
	return s.own(p)
}

// own is the cold path of Own: a page not touched yet, or one the image
// covers. The first store to a page the image populated copies the frame; a
// page the image left untouched got a frame of the space's own when it was
// first touched.
func (s *Space) own(p PageID) []byte {
	f := s.frame(p)
	if !s.shares(p, f) {
		return f
	}
	mine := s.arena.get(false)
	copy(mine, f)
	s.frames[p] = mine
	if s.moved != nil {
		s.moved(f, mine)
	}
	return mine
}

// SnapshotPageInto copies page p's current bytes — the pre-image the pushdown
// undo journal captures before a page's first write — into buf when buf has
// page capacity, and into a page of the arena when it does not: the journal
// passes nil and hands the pre-image back with Recycle, which keeps capture
// allocation-free in steady state. A page never touched reads as zeroes,
// exactly as ReadAt would see it.
func (s *Space) SnapshotPageInto(p PageID, buf []byte) []byte {
	if cap(buf) < PageSize {
		buf = s.arena.get(false)
	}
	img := buf[:PageSize]
	copy(img, s.frame(p))
	return img
}

// RestorePage overwrites page p with a previously captured snapshot,
// rolling every byte of the page back to its SnapshotPageInto state.
func (s *Space) RestorePage(p PageID, img []byte) {
	copy(s.Own(p), img)
}

// ReadAt copies len(buf) bytes starting at addr into buf, crossing page
// boundaries as needed.
func (s *Space) ReadAt(addr Addr, buf []byte) {
	for len(buf) > 0 {
		f := s.frame(PageOf(addr))
		off := int(addr & (PageSize - 1))
		n := copy(buf, f[off:])
		buf = buf[n:]
		addr += Addr(n)
	}
}

// WriteAt copies buf into the space starting at addr. A span that crosses a
// page is populated first (Populate), since it fills the pages between.
func (s *Space) WriteAt(addr Addr, buf []byte) {
	if !within(addr, len(buf)) {
		s.Populate(addr, int64(len(buf)))
	}
	for len(buf) > 0 {
		f := s.Own(PageOf(addr))
		off := int(addr & (PageSize - 1))
		n := copy(f[off:], buf)
		buf = buf[n:]
		addr += Addr(n)
	}
}

// within reports whether an access of size n starting at addr stays inside
// one page (the fast path for scalar accessors).
func within(addr Addr, n int) bool {
	return int(addr&(PageSize-1))+n <= PageSize
}

// ReadU64 reads a little-endian uint64 at addr.
func (s *Space) ReadU64(addr Addr) uint64 {
	if within(addr, 8) {
		f := s.frame(PageOf(addr))
		off := addr & (PageSize - 1)
		return binary.LittleEndian.Uint64(f[off:])
	}
	var b [8]byte
	s.ReadAt(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64 at addr.
func (s *Space) WriteU64(addr Addr, v uint64) {
	if within(addr, 8) {
		f := s.Own(PageOf(addr))
		off := addr & (PageSize - 1)
		binary.LittleEndian.PutUint64(f[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.WriteAt(addr, b[:])
}

// ReadU32 reads a little-endian uint32 at addr.
func (s *Space) ReadU32(addr Addr) uint32 {
	if within(addr, 4) {
		f := s.frame(PageOf(addr))
		off := addr & (PageSize - 1)
		return binary.LittleEndian.Uint32(f[off:])
	}
	var b [4]byte
	s.ReadAt(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 writes a little-endian uint32 at addr.
func (s *Space) WriteU32(addr Addr, v uint32) {
	if within(addr, 4) {
		f := s.Own(PageOf(addr))
		off := addr & (PageSize - 1)
		binary.LittleEndian.PutUint32(f[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.WriteAt(addr, b[:])
}

// WriteI64 writes an int64.
func (s *Space) WriteI64(addr Addr, v int64) { s.WriteU64(addr, uint64(v)) }

// WriteI32 writes an int32.
func (s *Space) WriteI32(addr Addr, v int32) { s.WriteU32(addr, uint32(v)) }
