package netmodel

import (
	"encoding/binary"
	"errors"
)

// The decode half of the pushdown wire format, and the response's encoder.
// No production path builds or parses a message — a call sends only the
// sizes WireSize computes — so these exist to prove those sizes by round
// trip: the tests and fuzzers in this package hold WireSize to the length
// Marshal writes and these decoders accept.

// Response status words: a response carries an exception exactly when its
// status is responseException.
const (
	responseOK uint32 = iota
	responseException
)

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

// Marshal packs the response, WireSize bytes: the status word, which
// Exception decides, the exception's length and the exception.
func (r *PushdownResponse) Marshal() []byte {
	buf := make([]byte, r.WireSize())
	status := responseOK
	if len(r.Exception) > 0 {
		status = responseException
	}
	binary.LittleEndian.PutUint32(buf[0:], status)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(r.Exception)))
	copy(buf[8:], r.Exception)
	return buf
}

// UnmarshalPushdownResponse parses a response. It rejects what Marshal
// cannot write: a status word other than ok or exception, a status that
// disagrees with the exception's presence, and a length that is not the
// buffer's.
func UnmarshalPushdownResponse(buf []byte) (*PushdownResponse, error) {
	if len(buf) < 8 {
		return nil, errors.New("netmodel: short pushdown response")
	}
	status := binary.LittleEndian.Uint32(buf[0:])
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	switch {
	case len(buf) != 8+n:
		return nil, errors.New("netmodel: exception payload length mismatch")
	case status != responseOK && status != responseException:
		return nil, errors.New("netmodel: unknown response status")
	case (status == responseException) != (n > 0):
		return nil, errors.New("netmodel: response status disagrees with its exception")
	}
	r := &PushdownResponse{}
	if n > 0 {
		r.Exception = append([]byte(nil), buf[8:]...)
	}
	return r, nil
}

// UnmarshalResident parses either resident-list encoding back into
// canonical (maximally merged, sorted) runs.
func UnmarshalResident(buf []byte) ([]PageRun, error) {
	if len(buf) < 4 {
		return nil, errors.New("netmodel: short resident list")
	}
	head := binary.LittleEndian.Uint32(buf)
	if head&bitmapFlag == 0 {
		return UnmarshalRuns(buf)
	}
	span := uint64(head &^ uint32(bitmapFlag))
	if span == 0 || len(buf) != bitmapBytes(span) {
		return nil, errors.New("netmodel: resident bitmap length mismatch")
	}
	start := binary.LittleEndian.Uint64(buf[4:])
	if start+span < start {
		return nil, errors.New("netmodel: resident bitmap span overflow")
	}
	var runs []PageRun
	for off := uint64(0); off < span; off++ {
		bits := buf[bitmapFixedBytes+off/pagesPerByte] >> (2 * (off % pagesPerByte)) & 3
		if bits&1 == 0 {
			if bits != 0 {
				return nil, errors.New("netmodel: writable bit on non-resident page")
			}
			continue
		}
		writable := bits&2 != 0
		if n := len(runs); n > 0 {
			last := &runs[n-1]
			if last.Start+uint64(last.Count) == start+off && last.Writable == writable {
				last.Count++
				continue
			}
		}
		runs = append(runs, PageRun{Start: start + off, Count: 1, Writable: writable})
	}
	if len(runs) == 0 {
		return nil, errors.New("netmodel: resident bitmap has no resident pages")
	}
	// Reject padding noise in the final partial byte.
	for off := span; off%pagesPerByte != 0; off++ {
		if buf[bitmapFixedBytes+off/pagesPerByte]>>(2*(off%pagesPerByte))&3 != 0 {
			return nil, errors.New("netmodel: resident bitmap padding bits set")
		}
	}
	return runs, nil
}

// UnmarshalRuns parses the RLE format AppendRuns writes.
func UnmarshalRuns(buf []byte) ([]PageRun, error) {
	if len(buf) < 4 {
		return nil, errors.New("netmodel: short run list")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != 4+n*runWireBytes {
		return nil, errors.New("netmodel: run list length mismatch")
	}
	runs := make([]PageRun, n)
	off := 4
	for i := range runs {
		if buf[off+12] > 1 {
			return nil, errors.New("netmodel: unknown run flags")
		}
		runs[i].Start = binary.LittleEndian.Uint64(buf[off:])
		runs[i].Count = binary.LittleEndian.Uint32(buf[off+8:])
		runs[i].Writable = buf[off+12] == 1
		off += runWireBytes
	}
	return runs, nil
}
