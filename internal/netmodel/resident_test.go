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
// message relies on — and (4) it is exactly as long as residentWireSize, the
// size a pushdown call sends.
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
		if dec := decodeRuns(runs); !reflect.DeepEqual(dec, entries) && !(len(dec) == 0 && len(entries) == 0) {
			t.Fatalf("RLE round trip changed the page list:\n got %v\nwant %v", dec, entries)
		}

		wire := MarshalResident(runs)
		if span, ok := bitmapSpan(runs); ok && len(wire) > bitmapBytes(span) {
			t.Fatalf("encoding is %d bytes, longer than its %d-byte bitmap", len(wire), bitmapBytes(span))
		}
		if rle := RunsWireSize(runs); len(wire) > rle {
			t.Fatalf("encoding is %d bytes, longer than plain RLE's %d", len(wire), rle)
		}
		if size := residentWireSize(runs); len(wire) != size {
			t.Fatalf("encoding is %d bytes, residentWireSize says %d", len(wire), size)
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
	})
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

// A request over either limit — its inline argument, or the whole message —
// is rejected by Marshal and WireSize alike, with the same error and no
// bytes.
func TestOversizedRequestRejected(t *testing.T) {
	long := PushdownRequest{Resident: make([]PageRun, MaxRDMAMessage/runWireBytes+1)}
	for i := range long.Resident {
		long.Resident[i] = PageRun{Start: uint64(i) << 20, Count: 1}
	}
	for _, req := range []PushdownRequest{{ArgInline: make([]byte, MaxRDMAMessage/2+1)}, long} {
		buf, err := req.Marshal()
		if err == nil || buf != nil {
			t.Fatalf("oversized request: Marshal gave %d bytes, err %v", len(buf), err)
		}
		if n, sizeErr := req.WireSize(); n != 0 || sizeErr == nil || sizeErr.Error() != err.Error() {
			t.Errorf("oversized request: WireSize = %d, %v; Marshal's error is %v", n, sizeErr, err)
		}
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
