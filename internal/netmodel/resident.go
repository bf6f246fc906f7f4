package netmodel

import "encoding/binary"

// This file adds the second resident-page-list wire encoding §6 weighs
// RLE against: a dense permission bitmap over the list's page span. RLE
// wins when residency clusters into few runs (the common case — §6
// reports ~20× vs the raw list); the bitmap wins when permissions
// alternate page by page and every page becomes its own 13-byte run. The
// request carries whichever is smaller, so the resident list is never
// longer than its bitmap encoding, and existing RLE-encoded bytes remain
// valid: the format discriminator is the top bit of the leading word,
// which a run count never sets.

// bitmapFlag marks the leading uint32 of a bitmap-encoded list. Run
// counts are bounded by the RDMA buffer (a few thousand), so the bit is
// unambiguous.
const bitmapFlag = 1 << 31

// bitmapFixedBytes is the bitmap header: flagged span word + start page.
const bitmapFixedBytes = 4 + 8

// pagesPerByte is the bitmap density: two bits per page in the span —
// bit 0 resident, bit 1 writable.
const pagesPerByte = 4

// bitmapSpan returns the number of page slots a bitmap over runs must
// cover, and whether a bitmap encoding is representable: a non-empty,
// strictly ascending, non-overlapping list (wire input may be neither)
// whose span fits the flagged word.
func bitmapSpan(runs []PageRun) (uint64, bool) {
	if len(runs) == 0 {
		return 0, false
	}
	end := runs[0].Start // exclusive end of the previous run
	for _, r := range runs {
		if r.Count == 0 || r.Start < end {
			return 0, false
		}
		next := r.Start + uint64(r.Count)
		if next < r.Start {
			return 0, false // page-ID overflow
		}
		end = next
	}
	span := end - runs[0].Start
	if span == 0 || span >= bitmapFlag {
		return 0, false
	}
	return span, true
}

// bitmapBytes is the size of the bitmap encoding of a span.
func bitmapBytes(span uint64) int {
	return bitmapFixedBytes + int((span+pagesPerByte-1)/pagesPerByte)
}

// residentWireSize is the length of the resident list on the wire: the
// smaller of plain RLE and the bitmap, RLE on ties, so lists that compress
// well go out exactly as AppendRuns writes them. It is the one place the
// encoding is chosen.
func residentWireSize(runs []PageRun) int {
	rle := RunsWireSize(runs)
	if span, ok := bitmapSpan(runs); ok && bitmapBytes(span) < rle {
		return bitmapBytes(span)
	}
	return rle
}

// MarshalResident serialises the resident list in the encoding
// residentWireSize chose.
func MarshalResident(runs []PageRun) []byte {
	size := residentWireSize(runs)
	if size == RunsWireSize(runs) {
		return AppendRuns(nil, runs)
	}
	span, _ := bitmapSpan(runs)
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf, bitmapFlag|uint32(span))
	binary.LittleEndian.PutUint64(buf[4:], runs[0].Start)
	setBitmap(buf[bitmapFixedBytes:], runs)
	return buf
}

// setBitmap sets the bits of runs — a list bitmapSpan accepts — in the
// zeroed bitmap body bmp, whose slot 0 is runs[0].Start, one page at a time.
func setBitmap(bmp []byte, runs []PageRun) {
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
