package netmodel

import (
	"bytes"
	"fmt"
	"testing"
)

// Fuzzers: the unmarshallers (codec_test.go) face bytes from the wire and
// must never panic; a pushdown message they accept re-marshals to exactly the
// length its WireSize reports, and a run list or a response to the very bytes
// parsed (run with `go test -fuzz=FuzzUnmarshalRuns ./internal/netmodel`).

func FuzzUnmarshalRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(AppendRuns(nil, []PageRun{{Start: 3, Count: 2, Writable: true}}))
	f.Add([]byte("\x01\x00\x00\x00000000000000\x02")) // flags byte 2
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := UnmarshalRuns(data)
		if err != nil {
			return
		}
		// Whatever parsed must re-marshal to the same bytes.
		out := AppendRuns(nil, runs)
		if len(out) != len(data) {
			t.Fatalf("round trip length changed: %d vs %d", len(out), len(data))
		}
		for i := range out {
			if out[i] != data[i] {
				t.Fatalf("round trip byte %d changed", i)
			}
		}
	})
}

func FuzzUnmarshalPushdownRequest(f *testing.F) {
	seed, _ := (&PushdownRequest{Fn: 1, ArgInline: []byte{2}, Resident: []PageRun{{Start: 1, Count: 1}}}).Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := UnmarshalPushdownRequest(data)
		if err != nil {
			return
		}
		// Oversized reconstructions may exceed the RDMA buffer; that is a
		// valid rejection, not a crash, and WireSize must reject them alike.
		buf, err := req.Marshal()
		n, sizeErr := req.WireSize()
		if n != len(buf) || fmt.Sprint(sizeErr) != fmt.Sprint(err) {
			t.Fatalf("WireSize = %d, %v; Marshal gave %d bytes, %v", n, sizeErr, len(buf), err)
		}
	})
}

func FuzzUnmarshalPushdownResponse(f *testing.F) {
	f.Add((&PushdownResponse{Exception: []byte("x")}).Marshal())
	f.Add((&PushdownResponse{}).Marshal())
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 'x'})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := UnmarshalPushdownResponse(data)
		if err != nil {
			return
		}
		// Whatever parsed must re-marshal to the same bytes, in WireSize of
		// them.
		buf := resp.Marshal()
		if n := resp.WireSize(); n != len(buf) {
			t.Fatalf("WireSize = %d, Marshal gave %d bytes", n, len(buf))
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("round trip changed the response:\n got % x\nwant % x", buf, data)
		}
	})
}
