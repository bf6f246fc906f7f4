package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageArithmetic(t *testing.T) {
	if PageOf(0) != 0 || PageOf(PageSize-1) != 0 || PageOf(PageSize) != 1 {
		t.Fatal("PageOf broken")
	}
	f, l := PageSpan(PageSize-1, 2)
	if f != 0 || l != 1 {
		t.Fatalf("PageSpan crossing = (%d,%d)", f, l)
	}
	f, l = PageSpan(100, 0)
	if f != 0 || l != 0 {
		t.Fatalf("PageSpan empty = (%d,%d)", f, l)
	}
}

func TestPageTableBasics(t *testing.T) {
	pt := NewPageTable()
	if _, ok := pt.Lookup(5); ok {
		t.Fatal("fresh table should be empty")
	}
	e := pt.Ensure(5)
	e.Dirty = true
	if e2, ok := pt.Lookup(5); !ok || !e2.Dirty {
		t.Fatal("Ensure/Lookup mismatch")
	}
	if pt.Ensure(5) != e {
		t.Fatal("Ensure must return the same entry")
	}
}

func TestAllocAlignmentAndAccounting(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(100, "a")
	b := s.Alloc(8, "b")
	if a%64 != 0 || b%64 != 0 {
		t.Fatalf("allocations not 64B aligned: %x %x", a, b)
	}
	if b <= a || b < a+100 {
		t.Fatalf("allocations overlap: a=%x b=%x", a, b)
	}
	p := s.AllocPages(PageSize*2, "p")
	if p%PageSize != 0 {
		t.Fatalf("AllocPages not page aligned: %x", p)
	}
	if s.Allocated() != 100+8+2*PageSize {
		t.Fatalf("Allocated = %d", s.Allocated())
	}
	if s.Pages() <= 0 {
		t.Fatal("Pages must be positive after allocation")
	}
}

func TestAllocZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSpace().Alloc(0, "zero")
}

func TestScalarRoundTrips(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(64, "scalars")
	s.WriteU64(a, 0xdeadbeefcafef00d)
	if s.ReadU64(a) != 0xdeadbeefcafef00d {
		t.Fatal("u64 round trip")
	}
	s.WriteU32(a+8, 42)
	if s.ReadU32(a+8) != 42 {
		t.Fatal("u32 round trip")
	}
	s.WriteI64(a+16, -7)
	if int64(s.ReadU64(a+16)) != -7 {
		t.Fatal("i64 round trip")
	}
	s.WriteI32(a+32, -9)
	if int32(s.ReadU32(a+32)) != -9 {
		t.Fatal("i32 round trip")
	}
}

func TestCrossPageAccess(t *testing.T) {
	s := NewSpace()
	base := s.AllocPages(2*PageSize, "x")
	// Write a buffer straddling the page boundary.
	edge := base + PageSize - 3
	in := []byte{1, 2, 3, 4, 5, 6}
	s.WriteAt(edge, in)
	out := make([]byte, 6)
	s.ReadAt(edge, out)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("cross-page ReadAt: %v vs %v", in, out)
		}
	}
	// Scalar straddling the boundary must still round trip (slow path).
	s.WriteU64(edge, 0x1122334455667788)
	if s.ReadU64(edge) != 0x1122334455667788 {
		t.Fatal("cross-page u64 round trip")
	}
}

func TestZeroInitialised(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(PageSize, "z")
	if s.ReadU64(a+128) != 0 {
		t.Fatal("fresh memory must read as zero")
	}
}

// Property: allocations never overlap and data written to distinct
// allocations never interferes.
func TestAllocIsolationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSpace()
		type slot struct {
			addr Addr
			val  uint64
		}
		var slots []slot
		for i := 0; i < 50; i++ {
			a := s.Alloc(int64(r.Intn(300)+8), "s")
			v := r.Uint64()
			s.WriteU64(a, v)
			slots = append(slots, slot{a, v})
		}
		for _, sl := range slots {
			if s.ReadU64(sl.addr) != sl.val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: WriteAt/ReadAt round-trips arbitrary buffers at arbitrary
// offsets.
func TestReadWriteAtProperty(t *testing.T) {
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		s := NewSpace()
		base := s.AllocPages(PageSize*20, "buf")
		addr := base + Addr(off)
		s.WriteAt(addr, data)
		out := make([]byte, len(data))
		s.ReadAt(addr, out)
		for i := range data {
			if data[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExtent(t *testing.T) {
	s := NewSpace()
	if _, _, ok := s.Extent(); ok {
		t.Fatal("empty space has no extent")
	}
	a := s.AllocPages(3*PageSize, "x")
	first, last, ok := s.Extent()
	if !ok {
		t.Fatal("extent missing after allocation")
	}
	if first > PageOf(a) || last < PageOf(a+3*PageSize-1) {
		t.Fatalf("extent [%d,%d] does not cover allocation", first, last)
	}
	if s.Pages() != int64(last-first)+1 {
		t.Fatalf("Pages() = %d, extent span %d", s.Pages(), last-first+1)
	}
}

func TestCrossPageU32(t *testing.T) {
	s := NewSpace()
	base := s.AllocPages(2*PageSize, "x")
	edge := base + PageSize - 2 // straddles the boundary
	s.WriteU32(edge, 0xA1B2C3D4)
	if s.ReadU32(edge) != 0xA1B2C3D4 {
		t.Fatal("cross-page u32 round trip")
	}
	s.WriteI32(edge, -5)
	if int32(s.ReadU32(edge)) != -5 {
		t.Fatal("cross-page i32 round trip")
	}
}
