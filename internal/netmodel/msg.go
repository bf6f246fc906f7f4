package netmodel

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file defines the concrete wire format of the pushdown RPC (§3.2 ❷):
// the function pointer, the argument pointer, the flags word, the inline
// argument bytes, and the compressed resident-page list (RLE or, when
// permissions fragment badly, a dense bitmap — see resident.go), all packed
// into one message. §6's observation — that compressing the list makes the
// whole request fit a single RDMA message — is checked against
// MaxRDMAMessage below.

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

// Marshal packs the request.
func (r *PushdownRequest) Marshal() ([]byte, error) { return r.AppendTo(nil) }

// AppendTo appends the packed request to dst, so a caller that sends many
// requests can reuse one buffer. On error it returns dst unextended.
func (r *PushdownRequest) AppendTo(dst []byte) ([]byte, error) {
	if len(r.ArgInline) > MaxRDMAMessage/2 {
		return dst, fmt.Errorf("netmodel: inline argument too large (%d bytes)", len(r.ArgInline))
	}
	base := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, r.Fn)
	dst = binary.LittleEndian.AppendUint64(dst, r.Arg)
	dst = binary.LittleEndian.AppendUint32(dst, r.Flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.ArgInline)))
	dst = append(dst, r.ArgInline...)
	dst = AppendResident(dst, r.Resident)
	if n := len(dst) - base; n > MaxRDMAMessage {
		return dst[:base], fmt.Errorf("netmodel: pushdown request %d bytes exceeds the %d-byte RDMA buffer",
			n, MaxRDMAMessage)
	}
	return dst, nil
}

// UnmarshalPushdownRequest parses a request.
func UnmarshalPushdownRequest(buf []byte) (*PushdownRequest, error) {
	if len(buf) < pushReqFixedBytes {
		return nil, errors.New("netmodel: short pushdown request")
	}
	r := &PushdownRequest{
		Fn:    binary.LittleEndian.Uint64(buf[0:]),
		Arg:   binary.LittleEndian.Uint64(buf[8:]),
		Flags: binary.LittleEndian.Uint32(buf[16:]),
	}
	inlineLen := int(binary.LittleEndian.Uint32(buf[20:]))
	rest := buf[pushReqFixedBytes:]
	if len(rest) < inlineLen {
		return nil, errors.New("netmodel: truncated inline argument")
	}
	if inlineLen > 0 {
		r.ArgInline = append([]byte(nil), rest[:inlineLen]...)
	}
	runs, err := UnmarshalResident(rest[inlineLen:])
	if err != nil {
		return nil, err
	}
	r.Resident = runs
	return r, nil
}

// PushdownResponse is the completion the memory controller returns (§3.2
// ❼): status, an optional rethrown-exception payload.
type PushdownResponse struct {
	Status    uint32 // 0 = ok, 1 = exception, 2 = killed
	Exception []byte
}

// Response status codes.
const (
	StatusOK uint32 = iota
	StatusException
	StatusKilled
)

// Marshal packs the response.
func (r *PushdownResponse) Marshal() []byte {
	buf := make([]byte, 8+len(r.Exception))
	binary.LittleEndian.PutUint32(buf[0:], r.Status)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(r.Exception)))
	copy(buf[8:], r.Exception)
	return buf
}

// UnmarshalPushdownResponse parses a response.
func UnmarshalPushdownResponse(buf []byte) (*PushdownResponse, error) {
	if len(buf) < 8 {
		return nil, errors.New("netmodel: short pushdown response")
	}
	r := &PushdownResponse{Status: binary.LittleEndian.Uint32(buf[0:])}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	if len(buf) < 8+n {
		return nil, errors.New("netmodel: truncated exception payload")
	}
	if n > 0 {
		r.Exception = append([]byte(nil), buf[8:8+n]...)
	}
	return r, nil
}
