package netmodel

import (
	"encoding/binary"
	"fmt"
)

// This file defines the concrete wire format of the pushdown RPC (§3.2 ❷):
// the function pointer, the argument pointer, the flags word, the inline
// argument bytes, and the compressed resident-page list (RLE or, when
// permissions fragment badly, a dense bitmap — see resident.go), all packed
// into one message. §6's observation — that compressing the list makes the
// whole request fit a single RDMA message — is checked against
// MaxRDMAMessage below. A call sends only the sizes WireSize computes;
// PushdownRequest.Marshal is the encoder benchmark/'s probes time, and the
// decoders and the response encoder are oracles in codec_test.go.

// MaxRDMAMessage is the registered RPC buffer size (the LITE-style
// framework pre-allocates fixed buffers; one message must fit).
const MaxRDMAMessage = 64 << 10

// PushdownRequest is the request the compute kernel sends to the memory
// controller.
type PushdownRequest struct {
	Fn    uint64 // function pointer in the shared address space
	Arg   uint64 // argument-vector pointer
	Flags uint32
	// ArgInline carries small by-value arguments (the arg pointer's
	// transitive closure stays in the shared space).
	ArgInline []byte
	// Resident is the RLE-compressed resident-page list with permissions.
	Resident []PageRun
}

const pushReqFixedBytes = 8 + 8 + 4 + 4 // fn, arg, flags, inline length

// WireSize returns the length of the packed request, len(Marshal()),
// without building it; for a request Marshal rejects it returns 0 and
// Marshal's error.
func (r *PushdownRequest) WireSize() (int, error) {
	if len(r.ArgInline) > MaxRDMAMessage/2 {
		return 0, fmt.Errorf("netmodel: inline argument too large (%d bytes)", len(r.ArgInline))
	}
	n := pushReqFixedBytes + len(r.ArgInline) + residentWireSize(r.Resident)
	if n > MaxRDMAMessage {
		return 0, fmt.Errorf("netmodel: pushdown request %d bytes exceeds the %d-byte RDMA buffer",
			n, MaxRDMAMessage)
	}
	return n, nil
}

// Marshal packs the request.
func (r *PushdownRequest) Marshal() ([]byte, error) {
	n, err := r.WireSize()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, pushReqFixedBytes, n)
	binary.LittleEndian.PutUint64(buf[0:], r.Fn)
	binary.LittleEndian.PutUint64(buf[8:], r.Arg)
	binary.LittleEndian.PutUint32(buf[16:], r.Flags)
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(r.ArgInline)))
	buf = append(buf, r.ArgInline...)
	return append(buf, MarshalResident(r.Resident)...), nil
}

// PushdownResponse is the completion the memory controller returns (§3.2
// ❼) for a call that ran to its end: a status word and an optional
// rethrown-exception payload, whose presence is the status. A call that fails
// before it commits — a blown deadline among them — is reported by the failure
// notification, not by a response.
type PushdownResponse struct {
	Exception []byte
}

// WireSize returns the length of the packed response: the status and length
// words plus the exception.
func (r *PushdownResponse) WireSize() int { return 8 + len(r.Exception) }
