package mem

import (
	"runtime"
	"testing"
)

// BenchmarkPageLookup measures the per-access cost of resolving a page's
// frame — the operation every simulated load/store bottoms out in. The
// page-indexed frame table makes this a bounds check and a slice load, not
// a hash-map probe.
func BenchmarkPageLookup(b *testing.B) {
	s := NewSpace()
	const pages = 4096
	base := s.AllocPages(pages*PageSize, "bench")
	first := PageOf(base)
	// Touch every page once so the frames exist.
	for p := int64(0); p < pages; p++ {
		s.Frame(first + PageID(p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		f := s.Frame(first + PageID(i%pages))
		sink ^= f[0]
	}
	_ = sink
}

// BenchmarkSnapshotPageInto measures pre-image capture with a recycled
// buffer (the undo journal's steady state): one page copy, zero
// allocations.
func BenchmarkSnapshotPageInto(b *testing.B) {
	s := NewSpace()
	base := s.AllocPages(PageSize, "bench")
	pg := PageOf(base)
	s.Frame(pg)
	buf := make([]byte, PageSize)
	b.SetBytes(PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.SnapshotPageInto(pg, buf)
	}
}

// BenchmarkPopulate measures what a generator pays for the frames of 1 MB it
// fills: /range populates the range first (one allocation) and then takes
// each page with Own, as the dataset generators do; /page takes each page with
// Own alone, one frame allocation per page, as a lazily touched page does.
// Each iteration is a new space, so no frame comes from a recycled page, and
// starts after a collection outside the timer: the heap has the last
// iteration's memory back, as in a long run. Without it the numbers measure
// the host's page faults on memory the runtime returned to the system, which
// come and go from run to run (on a 2-core VM, /range read 120 or 570 µs).
func BenchmarkPopulate(b *testing.B) {
	const size = 1 << 20
	for _, populate := range []bool{true, false} {
		name := "page"
		if populate {
			name = "range"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				s := NewSpace()
				a := s.AllocPages(size, "filled")
				if populate {
					s.Populate(a, size)
				}
				for pg := PageOf(a); pg <= PageOf(a+size-1); pg++ {
					s.Own(pg)[0] = 1
				}
			}
		})
	}
}
