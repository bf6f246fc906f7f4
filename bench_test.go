package teleport_test

import (
	"testing"

	"teleport/internal/bench"
	"teleport/internal/mem"
	"teleport/internal/sim"

	"teleport"
)

// BenchmarkFigure has one sub-benchmark per registered figure or table
// (Figures 1a–22 and the extensions A1–A7), at sizes that keep the whole
// suite runnable in one `go test -bench Figure` invocation; `ddcsim fig`
// regenerates the figures at the committed EXPERIMENTS.md scale. One figure:
// `-bench 'BenchmarkFigure/15$'`.
func BenchmarkFigure(b *testing.B) {
	opts := bench.Options{Scale: 0.5, GraphNV: 15000, Words: 60000, Seed: 1, CacheFrac: 0.02}
	for _, id := range bench.Figures() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Run(id, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Simulator micro-benchmarks: the real-time cost of the building blocks.

func BenchmarkPushdownCall(b *testing.B) {
	m := teleport.NewDDCMachine(256 * teleport.PageSize)
	p := m.NewProcess()
	rt := teleport.NewRuntime(p, 1)
	th := teleport.NewThread("bench")
	a := p.Space.AllocPages(64*teleport.PageSize, "buf")
	env := p.NewEnv(th)
	for pg := 0; pg < 64; pg++ {
		env.WriteI64(a+teleport.Addr(pg*teleport.PageSize), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Pushdown(th, func(env *teleport.Env) {
			env.ReadI64(a)
		}, teleport.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvSequentialRead(b *testing.B) {
	m := teleport.NewLocalMachine()
	p := m.NewProcess()
	env := p.NewEnv(teleport.NewThread("bench"))
	const size = 1 << 20
	a := p.Space.AllocPages(size, "buf")
	b.SetBytes(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.ReadU64(a + teleport.Addr(i*8%size))
	}
}

func BenchmarkEnvRandomReadDDC(b *testing.B) {
	m := teleport.NewDDCMachine(128 * teleport.PageSize)
	p := m.NewProcess()
	env := p.NewEnv(teleport.NewThread("bench"))
	const size = 8 << 20
	a := p.Space.AllocPages(size, "buf")
	x := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x*6364136223846793005 + 1
		env.ReadU64(a + teleport.Addr(x%(size/8))*8)
	}
}

func BenchmarkSchedulerSwitch(b *testing.B) {
	s := sim.NewScheduler()
	s.SetQuantum(0)
	n := b.N
	for t := 0; t < 2; t++ {
		s.Spawn("t", 0, func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				th.Advance(1)
			}
		})
	}
	b.ResetTimer()
	s.Run()
}

func BenchmarkPageTableEnsureLookup(b *testing.B) {
	pt := mem.NewPageTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Ensure(mem.PageID(i % 4096)).Dirty = true
		pt.Lookup(mem.PageID(i % 4096))
	}
}
