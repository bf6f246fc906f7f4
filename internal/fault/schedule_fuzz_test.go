package fault

import (
	"slices"
	"testing"

	"teleport/internal/sim"
)

// FuzzSchedulePins pins arbitrary window lists — adjacent, zero-length,
// overlapping, unsorted, inverted — on one to three targets. A malformed
// list must panic in Pin; well-formed ones must make DownAt, UpAt, UpSpan and
// Windows agree with a linear-scan oracle over the half-open [Down, Up)
// definition at every boundary instant ±1 ns, for the targets alone and
// combined.
//
// Encoding: data[0] picks 1–3 targets (and which); each target then reads a window count
// (mod 6) and per window a signed gap from the previous Up and a signed
// length, so negative bytes produce the malformed cases.
func FuzzSchedulePins(f *testing.F) {
	f.Add([]byte{0, 2, 10, 10, 0, 10})                   // one target, two adjacent windows
	f.Add([]byte{1, 1, 5, 0, 2, 3, 4, 0, 0})             // zero-length windows on two targets
	f.Add([]byte{2, 2, 10, 20, 0xF6, 5, 1, 15, 15, 0})   // overlapping (gap −10) on the first of three
	f.Add([]byte{0, 2, 50, 10, 0xC4, 10})                // unsorted
	f.Add([]byte{0, 1, 10, 0xFB})                        // inverted: Up before Down
	f.Add([]byte{2, 1, 10, 10, 1, 15, 15, 1, 30, 5})     // a heal landing inside the next target's window
	f.Add([]byte{1, 3, 0, 1, 0, 1, 0, 1, 3, 1, 1, 1, 1}) // chains of 1 ns windows
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(int8(b))
		}
		pool := []Target{Pool(), Shard(0), Link(EndpointCompute, 0), Shard(1), Link(0, EndpointCompute), Link(0, 1)}
		first := next() & 0xFF
		n := 1 + first%3
		p := NewPlan(Profile{Name: "fuzz"}, 0)
		var tgs []Target
		var lists [][]Window
		for i := 0; i < n; i++ {
			var ws []Window
			var prev sim.Time
			wellFormed := true
			for j, cnt := 0, (next()&0xFF)%6; j < cnt; j++ {
				down := prev + sim.Time(next())
				up := down + sim.Time(next())
				if up < down || down < prev {
					wellFormed = false
				}
				ws = append(ws, Window{Down: down, Up: up})
				prev = max(prev, up)
			}
			tg := pool[(first+i)%len(pool)]
			if !wellFormed {
				if !panics(func() { p.Pin(tg, ws...) }) {
					t.Fatalf("malformed windows %v did not panic in Pin", ws)
				}
				return
			}
			p.Pin(tg, ws...)
			tgs, lists = append(tgs, tg), append(lists, ws)
		}

		// Oracles, by linear scan over the definition.
		downAt := func(ws []Window, at sim.Time) (sim.Time, bool) {
			for _, w := range ws {
				if w.Down <= at && at < w.Up {
					return w.Up, true
				}
			}
			return 0, false
		}
		allUp := func(sel []int, at sim.Time) bool {
			for _, i := range sel {
				if _, down := downAt(lists[i], at); down {
					return false
				}
			}
			return true
		}
		var instants []sim.Time
		for _, ws := range lists {
			for _, w := range ws {
				instants = append(instants, w.Down-1, w.Down, w.Down+1, w.Up-1, w.Up, w.Up+1)
			}
		}
		instants = append(instants, 0, 1)
		subsets := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}
		for _, at := range instants {
			if at < 0 {
				continue
			}
			for i, tg := range tgs {
				wantRec, wantDown := downAt(lists[i], at)
				if rec, down := p.DownAt(tg, at); down != wantDown || rec != wantRec {
					t.Fatalf("DownAt(%+v, %d) = (%d, %v), oracle (%d, %v); windows %v", tg, at, rec, down, wantRec, wantDown, lists[i])
				}
				var want []Window
				for _, w := range lists[i] {
					if w.Down < at {
						want = append(want, w)
					}
				}
				if got := p.Windows(tg, at); !slices.Equal(got, want) {
					t.Fatalf("Windows(%+v, %d) = %v, oracle %v", tg, at, got, want)
				}
			}
			for _, sel := range subsets {
				if sel[len(sel)-1] >= len(tgs) {
					continue
				}
				// The earliest instant ≥ at with every selected target up is
				// at itself or some window's Up.
				want := sim.Time(-1)
				cands := append([]sim.Time{at}, instants...)
				slices.Sort(cands)
				for _, c := range cands {
					if c >= at && allUp(sel, c) {
						want = c
						break
					}
				}
				var pick []Target
				for _, i := range sel {
					pick = append(pick, tgs[i])
				}
				if got := p.UpAt(at, pick...); got != want {
					t.Fatalf("UpAt(%d, %+v) = %d, oracle %d; windows %v", at, pick, got, want, lists)
				}
				// The stretch ends at the first boundary instant after
				// it begins with some selected target down.
				wantTo := Forever
				for _, c := range cands {
					if c > want && !allUp(sel, c) {
						wantTo = c
						break
					}
				}
				if from, to := p.UpSpan(at, pick...); from != want || to != wantTo {
					t.Fatalf("UpSpan(%d, %+v) = [%d, %d), oracle [%d, %d); windows %v", at, pick, from, to, want, wantTo, lists)
				}
			}
		}
	})
}
