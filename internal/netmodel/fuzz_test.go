package netmodel

import "testing"

// Fuzzers: the unmarshallers face bytes from the wire and must never panic
// (run with `go test -fuzz=FuzzUnmarshalRuns ./internal/netmodel`).

func FuzzUnmarshalRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add(AppendRuns(nil, []PageRun{{Start: 3, Count: 2, Writable: true}}))
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
		if _, err := req.Marshal(); err != nil {
			// Oversized reconstructions may exceed the RDMA buffer; that is
			// a valid rejection, not a crash.
			return
		}
	})
}

func FuzzUnmarshalPushdownResponse(f *testing.F) {
	f.Add((&PushdownResponse{Status: StatusException, Exception: []byte("x")}).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := UnmarshalPushdownResponse(data)
		if err != nil {
			return
		}
		_ = resp.Marshal()
	})
}
