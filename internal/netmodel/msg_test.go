package netmodel

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPushdownRequestRoundTrip(t *testing.T) {
	req := &PushdownRequest{
		Fn:        0xDEAD0000BEEF,
		Arg:       0x1000,
		Flags:     7,
		ArgInline: []byte{1, 2, 3},
		Resident:  []PageRun{{Start: 10, Count: 5, Writable: true}, {Start: 100, Count: 1}},
	}
	buf, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPushdownRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fn != req.Fn || got.Arg != req.Arg || got.Flags != req.Flags {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.ArgInline, req.ArgInline) {
		t.Fatal("inline arg mismatch")
	}
	if !reflect.DeepEqual(got.Resident, req.Resident) {
		t.Fatalf("runs mismatch: %+v", got.Resident)
	}
}

func TestPushdownRequestEmptyFields(t *testing.T) {
	req := &PushdownRequest{Fn: 1}
	buf, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPushdownRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ArgInline != nil || len(got.Resident) != 0 {
		t.Fatalf("empty fields round-tripped wrong: %+v", got)
	}
}

func TestPushdownRequestRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPushdownRequest([]byte{1, 2}); err == nil {
		t.Fatal("short buffer accepted")
	}
	// Claim a huge inline length.
	req := &PushdownRequest{Fn: 1, ArgInline: []byte{9}}
	buf, _ := req.Marshal()
	buf[20] = 0xFF
	if _, err := UnmarshalPushdownRequest(buf); err == nil {
		t.Fatal("truncated inline accepted")
	}
}

func TestPushdownRequestSizeLimits(t *testing.T) {
	req := &PushdownRequest{ArgInline: make([]byte, MaxRDMAMessage)}
	if _, err := req.Marshal(); err == nil {
		t.Fatal("oversized inline accepted")
	}
	// A dense 1 GB resident set must fit thanks to RLE (§6).
	entries := make([]PageEntry, 262144)
	for i := range entries {
		entries[i] = PageEntry{ID: uint64(i), Writable: i%2048 < 1024}
	}
	runs, err := EncodeRuns(entries)
	if err != nil {
		t.Fatal(err)
	}
	req = &PushdownRequest{Resident: runs}
	if _, err := req.Marshal(); err != nil {
		t.Fatalf("RLE-compressed 1GB resident set must fit one RDMA message: %v", err)
	}
}

func TestPushdownResponseRoundTrip(t *testing.T) {
	for _, r := range []*PushdownResponse{
		{},
		{Exception: []byte("segfault at 0x0")},
	} {
		buf := r.Marshal()
		if len(buf) != r.WireSize() {
			t.Fatalf("Marshal wrote %d bytes, WireSize says %d", len(buf), r.WireSize())
		}
		got, err := UnmarshalPushdownResponse(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Exception, r.Exception) || !bytes.Equal(got.Marshal(), buf) {
			t.Fatalf("round trip: %+v vs %+v", got, r)
		}
	}
	if _, err := UnmarshalPushdownResponse([]byte{0}); err == nil {
		t.Fatal("short response accepted")
	}
	bad := (&PushdownResponse{Exception: []byte("x")}).Marshal()
	bad[4] = 0xFF
	if _, err := UnmarshalPushdownResponse(bad); err == nil {
		t.Fatal("truncated exception accepted")
	}
	// What Marshal cannot write: the struct carries the status only as the
	// exception's presence, so a decoder that accepted these would drop bytes.
	for name, buf := range map[string][]byte{
		"unknown status":           {2, 0, 0, 0, 0, 0, 0, 0},
		"ok with an exception":     {0, 0, 0, 0, 1, 0, 0, 0, 'x'},
		"exception without one":    {1, 0, 0, 0, 0, 0, 0, 0},
		"trailing byte after body": {0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		if _, err := UnmarshalPushdownResponse(buf); err == nil {
			t.Errorf("%s: % x accepted", name, buf)
		}
	}
}

// Property: request marshalling round-trips arbitrary contents.
func TestPushdownRequestProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		req := &PushdownRequest{
			Fn:    r.Uint64(),
			Arg:   r.Uint64(),
			Flags: r.Uint32(),
		}
		if n := r.Intn(64); n > 0 {
			req.ArgInline = make([]byte, n)
			r.Read(req.ArgInline)
		}
		start := uint64(0)
		for i := 0; i < r.Intn(20); i++ {
			start += uint64(r.Intn(1000) + 1)
			req.Resident = append(req.Resident, PageRun{
				Start: start, Count: uint32(r.Intn(100) + 1), Writable: r.Intn(2) == 0,
			})
			start += uint64(req.Resident[len(req.Resident)-1].Count)
		}
		buf, err := req.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalPushdownRequest(buf)
		if err != nil {
			return false
		}
		if got.Fn != req.Fn || got.Arg != req.Arg || got.Flags != req.Flags {
			return false
		}
		if !bytes.Equal(got.ArgInline, req.ArgInline) {
			return false
		}
		if len(got.Resident) != len(req.Resident) {
			return false
		}
		for i := range got.Resident {
			if got.Resident[i] != req.Resident[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
