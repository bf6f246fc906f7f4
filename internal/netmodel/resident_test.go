package netmodel

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// Alternating permissions on consecutive pages are RLE's worst case —
// one 13-byte run per page — and exactly where the bitmap must win.
func TestResidentBitmapBeatsDegenerateRLE(t *testing.T) {
	var entries []PageEntry
	for i := 0; i < 64; i++ {
		entries = append(entries, PageEntry{ID: 1000 + uint64(i), Writable: i%2 == 0})
	}
	runs, err := EncodeRuns(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 64 {
		t.Fatalf("expected 64 degenerate runs, got %d", len(runs))
	}
	wire := MarshalResident(runs)
	span, _ := bitmapSpan(runs)
	if bmp := bitmapBytes(span); len(wire) != bmp {
		t.Fatalf("degenerate list should marshal as a %d-byte bitmap, got %d bytes", bmp, len(wire))
	}
	if rle := RunsWireSize(runs); len(wire) >= rle {
		t.Fatalf("bitmap (%d bytes) should beat RLE (%d bytes)", len(wire), rle)
	}
	got, err := UnmarshalResident(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runs) {
		t.Fatalf("bitmap round trip changed runs:\n got %v\nwant %v", got, runs)
	}
}

// Run-friendly lists must keep producing the historical RLE bytes, so
// cost accounting for every existing workload is unchanged.
func TestResidentKeepsRLEBytesWhenSmaller(t *testing.T) {
	runs := []PageRun{{Start: 10, Count: 500, Writable: true}, {Start: 4096, Count: 300}}
	wire := MarshalResident(runs)
	if want := AppendRuns(nil, runs); !reflect.DeepEqual(wire, want) {
		t.Fatal("compact lists must marshal byte-identically to plain RLE")
	}
	got, err := UnmarshalResident(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runs) {
		t.Fatalf("RLE round trip changed runs: %v", got)
	}
}

func TestResidentBitmapRejectsCorruption(t *testing.T) {
	entries := make([]PageEntry, 8)
	for i := range entries {
		entries[i] = PageEntry{ID: uint64(2 * i), Writable: i%2 == 0} // gaps + alternation
	}
	runs, err := EncodeRuns(entries)
	if err != nil {
		t.Fatal(err)
	}
	wire := MarshalResident(runs)
	if len(wire) == RunsWireSize(runs) {
		t.Skip("fixture unexpectedly chose RLE; corruption cases covered by fuzzing")
	}
	// Truncation.
	if _, err := UnmarshalResident(wire[:len(wire)-1]); err == nil {
		t.Error("truncated bitmap should fail")
	}
	// Writable-but-not-resident bit pattern.
	bad := append([]byte(nil), wire...)
	bad[bitmapFixedBytes] |= 2 << 2 // second slot: writable without resident
	if _, err := UnmarshalResident(bad); err == nil {
		t.Error("writable bit on non-resident page should fail")
	}
}

// FuzzResidentRoundTrip is the §6 resident-list codec fuzzer: encode a
// synthesized page list, then check (1) RLE round-trips through
// encode/decode, (2) the chosen wire encoding round-trips through
// marshal/unmarshal to canonical runs, (3) the encoding is never longer
// than the bitmap (nor than plain RLE) — the size guarantee the pushdown
// message relies on — and (4) setBitmap sets the bytes setBitmapPerPage does.
func FuzzResidentRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 2, 0})
	f.Add([]byte{255, 1, 254, 0, 253, 1, 3, 0})
	f.Add(bytes.Repeat([]byte{0, 1}, 23)) // one 23-page run
	// Consecutive runs starting at every offset within a bitmap byte.
	f.Add(slices.Concat([]byte{0, 0}, bytes.Repeat([]byte{0, 1}, 14), []byte{0, 0, 0, 0},
		bytes.Repeat([]byte{0, 1}, 9), []byte{0, 0}, bytes.Repeat([]byte{0, 1}, 6)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []PageEntry
		id := uint64(0)
		for i := 0; i+1 < len(data) && len(entries) < 4096; i += 2 {
			id += 1 + uint64(data[i]%37) // strictly increasing: no duplicates
			entries = append(entries, PageEntry{ID: id, Writable: data[i+1]&1 == 1})
		}
		runs, err := EncodeRuns(entries)
		if err != nil {
			t.Fatalf("EncodeRuns on duplicate-free input: %v", err)
		}
		if len(runs) > len(entries) {
			t.Fatalf("%d runs exceed %d entries", len(runs), len(entries))
		}
		if dec := DecodeRuns(runs); !reflect.DeepEqual(dec, entries) && !(len(dec) == 0 && len(entries) == 0) {
			t.Fatalf("RLE round trip changed the page list:\n got %v\nwant %v", dec, entries)
		}

		wire := MarshalResident(runs)
		if span, ok := bitmapSpan(runs); ok && len(wire) > bitmapBytes(span) {
			t.Fatalf("encoding is %d bytes, longer than its %d-byte bitmap", len(wire), bitmapBytes(span))
		}
		if rle := RunsWireSize(runs); len(wire) > rle {
			t.Fatalf("encoding is %d bytes, longer than plain RLE's %d", len(wire), rle)
		}
		got, err := UnmarshalResident(wire)
		if err != nil {
			t.Fatalf("unmarshalling our own encoding: %v", err)
		}
		if len(got) == 0 && len(runs) == 0 {
			return
		}
		if !reflect.DeepEqual(got, runs) {
			t.Fatalf("wire round trip changed runs:\n got %v\nwant %v", got, runs)
		}

		// Whichever encoding the list goes out in.
		span, _ := bitmapSpan(runs)
		fast := make([]byte, bitmapBytes(span)-bitmapFixedBytes)
		ref := make([]byte, len(fast))
		setBitmap(fast, runs)
		setBitmapPerPage(ref, runs)
		if !bytes.Equal(fast, ref) {
			t.Fatalf("bitmap of %v:\n got %x\nwant %x", runs, fast, ref)
		}
	})
}

// setBitmapPerPage is setBitmap one page at a time: the reference the
// byte-filling writer is fuzzed against.
func setBitmapPerPage(bmp []byte, runs []PageRun) {
	for _, r := range runs {
		bits := byte(1)
		if r.Writable {
			bits |= 2
		}
		for i := uint64(0); i < uint64(r.Count); i++ {
			off := r.Start + i - runs[0].Start
			bmp[off/pagesPerByte] |= bits << (2 * (off % pagesPerByte))
		}
	}
}

// FuzzUnmarshalResident faces arbitrary bytes: it must never panic, and
// whatever it accepts must re-marshal to an encoding no larger than what
// was parsed (canonicalisation may shrink, never grow).
func FuzzUnmarshalResident(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRuns(nil, []PageRun{{Start: 3, Count: 2, Writable: true}}))
	f.Add(MarshalResident(mustRuns(f, alternating(16))))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := UnmarshalResident(data)
		if err != nil {
			return
		}
		out := MarshalResident(runs)
		if len(out) > len(data) {
			t.Fatalf("re-marshal grew: %d bytes from %d accepted bytes", len(out), len(data))
		}
		back, err := UnmarshalResident(out)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if !reflect.DeepEqual(back, runs) && !(len(back) == 0 && len(runs) == 0) {
			t.Fatalf("canonical encoding unstable:\n got %v\nwant %v", back, runs)
		}
	})
}

func alternating(n int) []PageEntry {
	entries := make([]PageEntry, n)
	for i := range entries {
		entries[i] = PageEntry{ID: uint64(i), Writable: i%2 == 0}
	}
	return entries
}

func mustRuns(f *testing.F, entries []PageEntry) []PageRun {
	runs, err := EncodeRuns(entries)
	if err != nil {
		f.Fatal(err)
	}
	return runs
}

// The append-style marshallers must produce Marshal's bytes after whatever
// the destination already holds, including into reused capacity that still
// carries an earlier, longer message (the bitmap is built with |=).
func TestAppendMatchesMarshalIntoDirtyBuffer(t *testing.T) {
	var alternating []PageEntry
	for i := 0; i < 40; i++ {
		alternating = append(alternating, PageEntry{ID: 7 + uint64(i), Writable: i%2 == 0})
	}
	bitmapRuns, err := EncodeRuns(alternating)
	if err != nil {
		t.Fatal(err)
	}
	rleRuns := []PageRun{{Start: 10, Count: 500, Writable: true}, {Start: 4096, Count: 300}}
	for _, runs := range [][]PageRun{bitmapRuns, rleRuns, nil} {
		dirty := bytes.Repeat([]byte{0xFF}, 512)
		prefix := []byte{1, 2, 3}
		got := AppendResident(append(dirty[:0], prefix...), runs)
		if want := append(prefix, MarshalResident(runs)...); !bytes.Equal(got, want) {
			t.Fatalf("AppendResident into a dirty buffer:\n got %x\nwant %x", got, want)
		}

		req := PushdownRequest{Fn: 1, Arg: 2, Flags: 3, ArgInline: []byte{9, 9}, Resident: runs}
		want, err := req.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err = req.AppendTo(append(dirty[:0], prefix...))
		if err != nil || !bytes.Equal(got, append(prefix, want...)) {
			t.Fatalf("AppendTo into a dirty buffer: err %v\n got %x\nwant %x", err, got, want)
		}
	}

	// A rejected request leaves the destination as it was.
	big := PushdownRequest{ArgInline: make([]byte, MaxRDMAMessage/2+1)}
	if got, err := big.AppendTo([]byte{1, 2, 3}); err == nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("oversized inline argument: got %x, err %v", got, err)
	}
	long := PushdownRequest{Resident: make([]PageRun, MaxRDMAMessage/runWireBytes+1)}
	for i := range long.Resident {
		long.Resident[i] = PageRun{Start: uint64(i) << 20, Count: 1}
	}
	if got, err := long.AppendTo([]byte{1, 2, 3}); err == nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("oversized resident list: got %d bytes, err %v", len(got), err)
	}
}

func TestCheckRuns(t *testing.T) {
	for _, tc := range []struct {
		runs []PageRun
		ok   bool
	}{
		{nil, true},
		{[]PageRun{{Start: 1, Count: 2}, {Start: 3, Count: 1, Writable: true}}, true},
		{[]PageRun{{Start: 1, Count: 2}, {Start: 3, Count: 1}}, true}, // unmerged but disjoint
		{[]PageRun{{Start: 1, Count: 2}, {Start: 2, Count: 1}}, false},
		{[]PageRun{{Start: 5, Count: 1}, {Start: 1, Count: 1}}, false},
		{[]PageRun{{Start: 5, Count: 0}}, false},
	} {
		if err := CheckRuns(tc.runs); (err == nil) != tc.ok {
			t.Errorf("CheckRuns(%+v) = %v, want ok=%v", tc.runs, err, tc.ok)
		}
	}
}
