package core

import (
	"slices"
	"testing"

	"teleport/internal/mem"
	"teleport/internal/netmodel"
)

// eagerTempTable is the temporary page table that materialises one override
// per resident page at set-up: Figure 8's invalidation loop run literally.
// tempTable must be indistinguishable from it (FuzzTempTableMatchesEager).
type eagerTempTable struct {
	chunks  []*[tempChunkPages]tempPTE
	gen     uint64
	touched []mem.PageID
	dirty   []mem.PageID
}

func (tt *eagerTempTable) reset() {
	tt.gen++
	tt.touched = tt.touched[:0]
}

func (tt *eagerTempTable) invalidateRuns(runs []netmodel.PageRun) {
	for _, run := range runs {
		for pg := run.Start; pg < run.Start+uint64(run.Count); pg++ {
			tt.invalidate(mem.PageID(pg), run.Writable)
		}
	}
}

func (tt *eagerTempTable) entry(p mem.PageID) *tempPTE {
	c := int(p / tempChunkPages)
	for c >= len(tt.chunks) {
		tt.chunks = append(tt.chunks, nil)
	}
	if tt.chunks[c] == nil {
		tt.chunks[c] = new([tempChunkPages]tempPTE)
	}
	e := &tt.chunks[c][p%tempChunkPages]
	if e.gen != tt.gen {
		*e = tempPTE{present: true, writable: true, gen: tt.gen}
		tt.touched = append(tt.touched, p)
	}
	return e
}

func (tt *eagerTempTable) peek(p mem.PageID) (present, writable bool) {
	if c := int(p / tempChunkPages); c < len(tt.chunks) && tt.chunks[c] != nil {
		if e := &tt.chunks[c][p%tempChunkPages]; e.gen == tt.gen {
			return e.present, e.writable
		}
	}
	return true, true
}

func (tt *eagerTempTable) invalidate(p mem.PageID, computeWritable bool) {
	e := tt.entry(p)
	if computeWritable {
		e.present = false
	} else {
		e.writable = false
	}
}

func (tt *eagerTempTable) dirtyPages() []mem.PageID {
	tt.dirty = tt.dirty[:0]
	for _, p := range tt.touched {
		if tt.chunks[p/tempChunkPages][p%tempChunkPages].dirty {
			tt.dirty = append(tt.dirty, p)
		}
	}
	slices.Sort(tt.dirty)
	return tt.dirty
}

func (tt *eagerTempTable) len() int { return len(tt.touched) }

// The fuzzer's operations, one byte each (mod tempOps), followed by their
// arguments: a page is two bytes (high, low) taken mod tempSpan; a set-up is
// a run count (mod 6) and per run a gap after the previous run, a length
// minus one and a writable bit.
const (
	tempOpSetup      = iota // runs: invalidateRuns, a first or a joining set-up
	tempOpEntry             // page: entry, whose fields must agree
	tempOpPeek              // page: peek
	tempOpHook              // page, bit: a compute fault takes the page (bit 1) or downgrades it
	tempOpInvalidate        // page, bit: Figure 8's Invalidate on one page
	tempOpDirty             // page: the temporary context writes the page
	tempOpReset             // the last call exits
	tempOps
)

// tempSpan is the page span the fuzzer addresses: two and a half storage
// chunks, so runs and lookups cross chunk boundaries and the table grows.
const tempSpan = 2*tempChunkPages + tempChunkPages/2

// FuzzTempTableMatchesEager drives tempTable and the eager reference in lock
// step through random first and joining set-ups, lookups, hook-style
// invalidations, dirty marks and resets, and after every step compares
// peek on every page of the span, len and dirtyPages.
func FuzzTempTableMatchesEager(f *testing.F) {
	// A joining set-up whose runs overlap the base with the opposite
	// writable bit, then reads and writes across the overlap.
	f.Add([]byte{
		tempOpSetup, 1, 10, 19, 1,
		tempOpSetup, 2, 15, 19, 0, 3, 7, 1,
		tempOpEntry, 0, 12, tempOpPeek, 0, 20, tempOpDirty, 0, 31, tempOpReset,
		tempOpSetup, 1, 0, 255, 0, tempOpDirty, 0, 40,
	})
	// A page a hook materialised before a second set-up: the set-up must
	// not take the table for the untouched clone.
	f.Add([]byte{
		tempOpHook, 2, 0xBC, 1, // page 700
		tempOpSetup, 2, 255, 255, 0, 150, 99, 1, // pages 255–510 and 661–760
		tempOpEntry, 2, 0xBC, tempOpReset,
		tempOpSetup, 2, 200, 100, 1, 0, 30, 0, tempOpHook, 0, 250, 0,
		tempOpSetup, 1, 240, 20, 1, tempOpInvalidate, 4, 0xFF, 1, tempOpDirty, 0, 245,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		page := func() mem.PageID { return mem.PageID((int(next())<<8 | int(next())) % tempSpan) }
		var got tempTable
		var want eagerTempTable
		got.reset()
		want.reset()
		var runs []netmodel.PageRun
		for step := 1; len(data) > 0 && step <= 128; step++ {
			switch op := next() % tempOps; op {
			case tempOpSetup:
				runs = runs[:0]
				var end uint64
				for n := next() % 6; n > 0; n-- {
					start, count, writable := end+uint64(next()), 1+uint64(next()), next()&1 == 1
					if start >= tempSpan {
						break
					}
					count = min(count, tempSpan-start)
					runs = append(runs, netmodel.PageRun{Start: start, Count: uint32(count), Writable: writable})
					end = start + count
				}
				if err := netmodel.CheckRuns(runs); err != nil {
					t.Fatalf("step %d: generated an invalid resident list %v: %v", step, runs, err)
				}
				got.invalidateRuns(runs)
				want.invalidateRuns(runs)
			case tempOpEntry:
				p := page()
				if g, w := *got.entry(p), *want.entry(p); g != w {
					t.Fatalf("step %d: entry(%d) = %+v, want %+v", step, p, g, w)
				}
			case tempOpPeek:
				p := page()
				gp, gw := got.peek(p)
				wp, ww := want.peek(p)
				if gp != wp || gw != ww {
					t.Fatalf("step %d: peek(%d) = (%v,%v), want (%v,%v)", step, p, gp, gw, wp, ww)
				}
			case tempOpHook:
				p, taken := page(), next()&1 == 1
				for _, e := range []*tempPTE{got.entry(p), want.entry(p)} {
					if taken {
						e.present = false
					} else {
						e.writable = false
					}
				}
			case tempOpInvalidate:
				p, computeWritable := page(), next()&1 == 1
				got.invalidate(p, computeWritable)
				want.invalidate(p, computeWritable)
			case tempOpDirty:
				p := page()
				for _, e := range []*tempPTE{got.entry(p), want.entry(p)} {
					e.dirty = true
					e.lastMemTouch = 1
				}
			case tempOpReset:
				got.reset()
				want.reset()
			}
			for p := mem.PageID(0); p < tempSpan; p++ {
				gp, gw := got.peek(p)
				if wp, ww := want.peek(p); gp != wp || gw != ww {
					t.Fatalf("step %d: page %d peeks (%v,%v), want (%v,%v)", step, p, gp, gw, wp, ww)
				}
			}
			if g, w := got.len(), want.len(); g != w {
				t.Fatalf("step %d: len = %d, want %d", step, g, w)
			}
			if g, w := got.dirtyPages(), want.dirtyPages(); !slices.Equal(g, w) {
				t.Fatalf("step %d: dirtyPages = %v, want %v", step, g, w)
			}
		}
	})
}
