package netmodel

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
)

// PageEntry is one resident page in the compute pool together with its write
// permission, as transmitted at the start of a pushdown call (§4.1:
// "the compute pool begins by building a list of memory pages ... and their
// write permissions").
type PageEntry struct {
	ID       uint64
	Writable bool
}

// PageRun is a run-length-encoded range of consecutive pages sharing a
// permission (§6: RLE gives ~20× smaller resident-page lists, letting the
// whole list ride in a single RDMA message).
type PageRun struct {
	Start    uint64
	Count    uint32
	Writable bool
}

// runWireBytes is the marshalled size of one run: 8 (start) + 4 (count) + 1
// (flags).
const runWireBytes = 13

// EncodeRuns compresses a page list into runs. The input is sorted by page
// ID internally; duplicate IDs are invalid and trigger an error.
func EncodeRuns(entries []PageEntry) ([]PageRun, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	sorted := make([]PageEntry, len(entries))
	copy(sorted, entries)
	slices.SortFunc(sorted, func(a, b PageEntry) int { return cmp.Compare(a.ID, b.ID) })
	runs := make([]PageRun, 0, 8)
	cur := PageRun{Start: sorted[0].ID, Count: 1, Writable: sorted[0].Writable}
	for _, e := range sorted[1:] {
		switch {
		case e.ID == cur.Start+uint64(cur.Count) && e.Writable == cur.Writable:
			cur.Count++
		case e.ID < cur.Start+uint64(cur.Count):
			return nil, errors.New("netmodel: duplicate page in list")
		default:
			runs = append(runs, cur)
			cur = PageRun{Start: e.ID, Count: 1, Writable: e.Writable}
		}
	}
	return append(runs, cur), nil
}

// CheckRuns reports whether runs is a well-formed resident list — non-empty
// runs in ascending, non-overlapping page order, as EncodeRuns produces — for
// lists that were built some other way.
func CheckRuns(runs []PageRun) error {
	var end uint64 // exclusive end of the previous run
	for i, r := range runs {
		if r.Count == 0 {
			return errors.New("netmodel: empty run in list")
		}
		if i > 0 && r.Start < end {
			return errors.New("netmodel: duplicate page in list")
		}
		end = r.Start + uint64(r.Count)
	}
	return nil
}

// AppendRuns appends the on-wire RLE format of runs to dst.
func AppendRuns(dst []byte, runs []PageRun) []byte {
	dst = slices.Grow(dst, RunsWireSize(runs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(runs)))
	for _, r := range runs {
		dst = binary.LittleEndian.AppendUint64(dst, r.Start)
		dst = binary.LittleEndian.AppendUint32(dst, r.Count)
		var flags byte
		if r.Writable {
			flags = 1
		}
		dst = append(dst, flags)
	}
	return dst
}

// RunsWireSize returns the marshalled size without allocating.
func RunsWireSize(runs []PageRun) int { return 4 + len(runs)*runWireBytes }

// RawListWireSize is the size the list would have without RLE (9 bytes per
// page: ID + permission), used to report the compression ratio from §6.
func RawListWireSize(numPages int) int { return 4 + numPages*9 }
