package ddc

import (
	"fmt"
	"testing"

	"teleport/internal/mem"
	"teleport/internal/sim"
)

// TestRowsQuietChunkRunsToPageEnd pins how far a quiet chunk runs. A
// zero-cost scan of 8-byte elements on a standalone thread takes two chunks a
// page: the row that crosses into the page, made the scalar way, and one quiet
// chunk for the rest of it. Declaring an explicit stream, even one the loop
// never accesses, changes nothing. Each case runs in a process of its own, so
// that no prefetch slot the other left behind cuts its chunks.
func TestRowsQuietChunkRunsToPageEnd(t *testing.T) {
	const pages, perPage = 4, mem.PageSize / 8
	for _, explicit := range []bool{false, true} {
		p := MustMachine(Linux()).NewProcess()
		env := p.NewEnv(sim.NewThread("t"))
		col := p.Space.AllocPages(pages*mem.PageSize, "col")
		out := p.Space.AllocPages(mem.PageSize, "out")
		rows := env.Rows(pages*perPage, 0)
		rows.Stream(col, 8, 0)
		if explicit {
			rows.Stream(out, 4, StreamWrite|StreamExplicit)
		}
		var chunks [pages]int
		longest := 0
		for rows.Next() {
			chunks[rows.I/perPage]++
			longest = max(longest, rows.Len)
		}
		for pg, n := range chunks {
			if n > 2 {
				t.Errorf("explicit=%v: page %d of the scan took %d chunks, want at most 2", explicit, pg, n)
			}
		}
		if longest != perPage-1 {
			t.Errorf("explicit=%v: longest chunk %d rows, want %d: the rest of a page", explicit, longest, perPage-1)
		}
	}
}

// TestRowsFifthStreamPanics pins the limit on a loop's streams: declaring one
// more than rowStreams panics with a message that names the limit, not with
// an index error.
func TestRowsFifthStreamPanics(t *testing.T) {
	p := MustMachine(Linux()).NewProcess()
	env := p.NewEnv(sim.NewThread("t"))
	a := p.Space.AllocPages(mem.PageSize, "col")
	rows := env.Rows(8, 0)
	for i := 0; i < rowStreams; i++ {
		rows.Stream(a, 8, 0)
	}
	defer func() {
		want := fmt.Sprintf("ddc: a row loop declares at most %d streams", rowStreams)
		if got := recover(); got != want {
			t.Errorf("a fifth stream panics with %v, want %q", got, want)
		}
	}()
	rows.Stream(a, 8, 0)
}
