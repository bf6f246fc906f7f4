package mem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// The image oracle: a frozen space and every space attached to it are each
// modelled by a flat byte array, and a trace of reads, stores, snapshots,
// restores, allocations and further attaches is replayed on both. After every
// operation each clone must equal its model — so a store shows in the clone
// that made it and in no sibling — and the image must equal what was frozen.
//
// Every space of a trace draws its pages from one arena, and the trace also
// recycles snapshots, releases clones and attaches new spaces in their place.
// After every operation each page on the arena's free list is overwritten with
// poison: were it still some clone's frame, a snapshot or the image's, the
// model comparison would show it, and a frame drawn from the list that was not
// zeroed would read as poison where its model says zero. The free list itself
// must never name a page twice or one that is still in use.

const (
	imagePages = 6            // pages the frozen space allocates
	cloneRoom  = 3 * PageSize // what a clone may allocate past the image
	cloneBytes = (imagePages + 4) * PageSize
)

// imageClone is one attached space, its model, and what it has been told moved.
type imageClone struct {
	s     *Space
	model []byte // the bytes from the image's first page on
	snaps []imageSnap
	moved map[PageID]int
	dead  bool // released, and not replaced yet
	t     testing.TB
}

type imageSnap struct {
	page     PageID
	img, ref []byte
}

// attach gives the clone a new space on arena a, attached to img. The
// snapshots an earlier space of the clone took stay: they are bytes, and
// restoring them into the new space is as good as any other store.
func (c *imageClone) attach(t testing.TB, a *Arena, img *Image, frozen []byte) {
	c.t, c.s, c.moved, c.dead = t, NewSpace(), map[PageID]int{}, false
	c.s.Share(a)
	c.model = make([]byte, cloneBytes)
	copy(c.model, frozen)
	c.s.Attach(img, func(from, to []byte) {
		// The page that moved is the one whose frame the space now reports.
		for pg := PageOf(spaceBase); pg < c.s.SharedEnd(); pg++ {
			if f := c.s.frames[pg]; f != nil && &f[0] == &to[0] {
				c.moved[pg]++
				off := int(pg-PageOf(spaceBase)) * PageSize
				if !bytes.Equal(from, frozen[off:off+PageSize]) || !bytes.Equal(to, from) {
					t.Fatalf("page %d moved from bytes that are not the image's, or to a copy that differs", pg)
				}
				return
			}
		}
		t.Fatal("moved reported a frame that backs no shared page")
	})
}

func (c *imageClone) check(what string) {
	if c.dead {
		return
	}
	got := make([]byte, cloneBytes)
	c.s.ReadAt(spaceBase, got)
	if !bytes.Equal(got, c.model) {
		for i := range got {
			if got[i] != c.model[i] {
				c.t.Fatalf("after %s: byte %#x of a clone is %#x, its model says %#x", what, i, got[i], c.model[i])
			}
		}
	}
	for pg, n := range c.moved {
		if n > 1 {
			c.t.Fatalf("after %s: page %d left the image %d times", what, pg, n)
		}
	}
}

// runImageModel replays the trace in data. Byte 0 seeds what the frozen space
// holds (and which of its pages it never touches); each operation is then four
// bytes: opcode, clone, and two operand bytes.
func runImageModel(t testing.TB, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	seed := next()
	rng := rand.New(rand.NewSource(int64(seed)))
	arena := &Arena{}
	src := NewSpace()
	src.Share(arena)
	// The allocation ends mid-page, so a clone's first Alloc shares the
	// image's last page.
	base := src.AllocPages(imagePages*PageSize-PageSize/2, "dataset")
	if base != spaceBase {
		t.Fatalf("first allocation at %#x, want %#x", base, spaceBase)
	}
	frozen := make([]byte, imagePages*PageSize)
	for pg := 0; pg < imagePages; pg++ {
		if seed>>uint(pg)&1 != 0 && pg != 0 {
			continue // a page the image leaves untouched
		}
		page := frozen[pg*PageSize : (pg+1)*PageSize]
		if pg == imagePages-1 {
			page = page[:PageSize/2]
		}
		rng.Read(page)
		src.WriteAt(base+Addr(pg*PageSize), page)
	}
	wantNext, wantAllocated := src.next, src.Allocated()
	img := src.Freeze()
	if src.Pages() != 0 || src.Allocated() != 0 {
		t.Fatal("Freeze left the space with allocations")
	}
	clones := make([]*imageClone, 2, 4)
	for i := range clones {
		clones[i] = &imageClone{}
		clones[i].attach(t, arena, img, frozen)
		if clones[i].s.next != wantNext || clones[i].s.Allocated() != wantAllocated {
			t.Fatal("an attached space does not allocate on from where the frozen one stopped")
		}
	}

	for len(data) > 0 {
		op, ci, x, y := next(), next(), next(), next()
		c := clones[ci%len(clones)]
		if c.dead {
			c.attach(t, arena, img, frozen) // on the pages its last space left
		}
		// Any address of the clone's reach, and a length that can span pages.
		addr := spaceBase + Addr((x<<8|y)*7%(cloneBytes-8))
		n := 1 + (x*131+y)%(PageSize+200)
		if int(addr-spaceBase)+n > cloneBytes {
			n = cloneBytes - int(addr-spaceBase)
		}
		off := int(addr - spaceBase)
		what := ""
		switch op % 12 {
		case 0:
			what = "ReadAt"
			got := make([]byte, n)
			c.s.ReadAt(addr, got)
			if !bytes.Equal(got, c.model[off:off+n]) {
				t.Fatalf("ReadAt(%#x, %d) differs from the model", addr, n)
			}
		case 1:
			what = "WriteAt"
			buf := bytes.Repeat([]byte{byte(x) | 1}, n)
			c.s.WriteAt(addr, buf)
			copy(c.model[off:], buf)
		case 2:
			what = "WriteU64"
			v := uint64(x)<<40 | uint64(y)<<8 | 1
			c.s.WriteU64(addr, v)
			if c.s.ReadU64(addr) != v {
				t.Fatalf("WriteU64(%#x) does not read back", addr)
			}
			for i := 0; i < 8; i++ {
				c.model[off+i] = byte(v >> (8 * i))
			}
		case 3:
			what = "WriteU32"
			v := uint32(x)<<16 | uint32(y)<<8 | 1
			c.s.WriteU32(addr, v)
			for i := 0; i < 4; i++ {
				c.model[off+i] = byte(v >> (8 * i))
			}
		case 4:
			what = "SnapshotPageInto"
			pg := PageOf(addr)
			po := int(pg-PageOf(spaceBase)) * PageSize
			c.snaps = append(c.snaps, imageSnap{pg, c.s.SnapshotPageInto(pg, nil),
				append([]byte(nil), c.model[po:po+PageSize]...)})
		case 5:
			what = "RestorePage"
			if len(c.snaps) == 0 {
				continue
			}
			sn := c.snaps[x%len(c.snaps)]
			if !bytes.Equal(sn.img, sn.ref) {
				t.Fatalf("a snapshot of page %d is not what the model held", sn.page)
			}
			c.s.RestorePage(sn.page, sn.img)
			copy(c.model[int(sn.page-PageOf(spaceBase))*PageSize:], sn.ref)
		case 6:
			what = "Own"
			pg := PageOf(addr)
			f := c.s.Own(pg)
			f[x] = byte(y)
			c.model[int(pg-PageOf(spaceBase))*PageSize+x] = byte(y)
			if g := c.s.Frame(pg); &g[0] != &f[0] {
				t.Fatalf("Own(%d) returned a frame the space does not read from", pg)
			}
		case 7:
			what = "Alloc"
			if c.s.next+Addr(n) <= spaceBase+imagePages*PageSize+cloneRoom {
				a := c.s.Alloc(int64(n), "more")
				c.s.WriteAt(a, bytes.Repeat([]byte{0xA5}, n))
				copy(c.model[a-spaceBase:], bytes.Repeat([]byte{0xA5}, n))
			}
		case 8:
			what = "Attach"
			if len(clones) < cap(clones) {
				nc := &imageClone{}
				nc.attach(t, arena, img, frozen)
				clones = append(clones, nc)
			}
		case 9:
			what = "Frame"
			pg := PageOf(addr)
			po := int(pg-PageOf(spaceBase)) * PageSize
			if !bytes.Equal(c.s.Frame(pg), c.model[po:po+PageSize]) {
				t.Fatalf("Frame(%d) differs from the model", pg)
			}
		case 10:
			what = "Recycle"
			if len(c.snaps) == 0 {
				continue
			}
			i := x % len(c.snaps)
			if sn := c.snaps[i]; !bytes.Equal(sn.img, sn.ref) {
				t.Fatalf("a snapshot of page %d is not what the model held", sn.page)
			}
			c.s.Recycle(c.snaps[i].img)
			c.snaps = append(c.snaps[:i], c.snaps[i+1:]...)
		case 11:
			what = "Release"
			wantAllocated, wantPages := c.s.Allocated(), c.s.Pages()
			c.s.Release()
			c.dead = true
			if c.s.Allocated() != wantAllocated || c.s.Pages() != wantPages {
				t.Fatal("Release changed what the space says it allocated")
			}
			for name, use := range map[string]func(){
				"ReadU64":          func() { c.s.ReadU64(addr) },
				"WriteU64":         func() { c.s.WriteU64(addr, 1) },
				"Frame":            func() { c.s.Frame(PageOf(addr)) },
				"Own":              func() { c.s.Own(PageOf(addr)) },
				"SnapshotPageInto": func() { c.s.SnapshotPageInto(PageOf(addr), nil) },
			} {
				if !panics(use) {
					t.Fatalf("%s on a released space did not panic", name)
				}
			}
		}
		poisonFree(t, what, arena, img, clones)
		for _, each := range clones {
			each.check(what)
		}
	}

	// The image still holds what was frozen, however its clones were used.
	fresh := &imageClone{}
	fresh.attach(t, arena, img, frozen)
	fresh.check("the trace, on a fresh clone")
	for pg := 0; pg < len(img.frames); pg++ {
		po := (pg - int(PageOf(spaceBase))) * PageSize
		if f := img.frames[pg]; f != nil && !bytes.Equal(f, frozen[po:po+PageSize]) {
			t.Fatalf("the image's frame of page %d changed", pg)
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// poisonFree overwrites every page on the arena's free list and fails if the
// list names a page twice, or one that the image, a live clone or a snapshot
// still in hand reads from.
func poisonFree(t testing.TB, what string, a *Arena, img *Image, clones []*imageClone) {
	free := map[*byte]bool{}
	for _, b := range a.free {
		if len(b) != PageSize {
			t.Fatalf("after %s: a buffer of %d bytes is on the free list", what, len(b))
		}
		if free[&b[0]] {
			t.Fatalf("after %s: a page is on the free list twice", what)
		}
		free[&b[0]] = true
		for i := range b {
			b[i] = 0xDB
		}
	}
	inUse := func(whose string, f []byte) {
		if f != nil && free[&f[0]] {
			t.Fatalf("after %s: a page on the free list is still %s", what, whose)
		}
	}
	for _, f := range img.frames {
		inUse("a frame of the image", f)
	}
	for _, c := range clones {
		for _, f := range c.s.frames {
			inUse("a frame of a clone", f)
		}
		for _, sn := range c.snaps {
			inUse("a snapshot", sn.img)
		}
	}
}

func randomImageTrace(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1+4*(40+rng.Intn(200)))
	rng.Read(data)
	return data
}

func TestSpaceImageMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		runImageModel(t, randomImageTrace(seed))
	}
}

func FuzzSpaceImage(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(0); seed < 8; seed++ {
		f.Add(randomImageTrace(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		runImageModel(t, data)
	})
}

// A page a space allocates after attaching lies past everything the image
// shares, so storing to it never takes the un-share path.
func TestAllocationsAfterAttachAreNotShared(t *testing.T) {
	src := NewSpace()
	a := src.AllocPages(3*PageSize+100, "dataset")
	src.WriteU64(a, 1) // only the first page is populated
	img := src.Freeze()
	s := NewSpace()
	s.Attach(img, nil)
	if got := s.AllocPages(PageSize, "state"); PageOf(got) < s.SharedEnd() {
		t.Fatalf("page %d allocated after the attach is below SharedEnd %d", PageOf(got), s.SharedEnd())
	}
	if s.SharedEnd() != PageOf(a)+1 {
		t.Fatalf("SharedEnd = %d, want the page after the image's last populated one, %d", s.SharedEnd(), PageOf(a)+1)
	}
}

func TestAttachToUsedSpacePanics(t *testing.T) {
	img := NewSpace().Freeze()
	s := NewSpace()
	s.Alloc(8, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("Attach to a space with allocations must panic")
		}
	}()
	s.Attach(img, nil)
}

// Spaces on several goroutines share one arena, as the cells of a figure do
// under -parallel: each lives on pages the others released, reads its own
// stores and untouched pages as zero, and in the end the arena holds no more
// pages than were ever in use at once. (Run under -race: the free list is the
// only state they share.)
func TestArenaSharedByConcurrentSpaces(t *testing.T) {
	const workers, lives, pages = 4, 25, 16
	arena := &Arena{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for life := 0; life < lives; life++ {
				s := NewSpace()
				s.Share(arena)
				a := s.AllocPages(2*pages*PageSize, "v")
				for pg := 0; pg < pages; pg++ {
					s.WriteU64(a+Addr(2*pg)*PageSize, uint64(w)<<32|uint64(pg)+1)
				}
				for pg := 0; pg < pages; pg++ {
					at := a + Addr(2*pg)*PageSize
					snap := s.SnapshotPageInto(PageOf(at), nil)
					got, untouched := s.ReadU64(at), s.ReadU64(at+PageSize)
					if want := uint64(w)<<32 | uint64(pg) + 1; got != want || untouched != 0 || snap[0] != byte(want) {
						t.Errorf("worker %d life %d page %d: reads %#x (want %#x), its untouched neighbour %#x, its snapshot %#x",
							w, life, pg, got, want, untouched, snap[0])
					}
					s.Recycle(snap)
				}
				s.Release()
			}
		}(w)
	}
	wg.Wait()
	// A life holds 2·pages frames and one snapshot.
	if n := len(arena.free); n == 0 || n > workers*(2*pages+1) {
		t.Fatalf("the arena ends with %d pages, want at most the %d ever in use at once", n, workers*(2*pages+1))
	}
}
