package profile_test

import (
	"testing"

	"teleport/internal/coldb"
	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/profile"
	"teleport/internal/sim"
)

func TestExecProfilesAndPushesOperators(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(32 * mem.PageSize))
	p := m.NewProcess()
	rt := core.NewRuntime(p, 1)
	db := coldb.NewDB(p)
	n := 20000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	tab := db.CreateTable("r", n, coldb.ColumnSpec{Name: "v", Type: coldb.I64})
	col := tab.Col("v")
	col.LoadI64(p, vals)

	run := func(pushSelect bool) (sim.Time, []profile.OpStat, float64) {
		th := sim.NewThread("q")
		ex := profile.NewExec(th, p, rt)
		if pushSelect {
			ex.Push("Selection")
		}
		var sum float64
		ex.Run("Selection", func(env *ddc.Env) {
			cand := coldb.SelectI64(env, col, coldb.PredI64{Op: coldb.CmpLT, Lo: 10}, nil)
			sum = coldb.Aggregate(env, col, coldb.AggSum, cand)
		})
		return ex.Total(), ex.Profile(), sum
	}

	baseT, prof, sum1 := run(false)
	pushT, profPush, sum2 := run(true)
	if sum1 != sum2 {
		t.Fatalf("pushdown changed the answer: %v vs %v", sum1, sum2)
	}
	if len(prof) != 1 || prof[0].Name != "Selection" || prof[0].Pushed {
		t.Fatalf("profile = %+v", prof)
	}
	if !profPush[0].Pushed {
		t.Fatal("pushed profile not marked")
	}
	if pushT >= baseT {
		t.Fatalf("pushing the scan did not help: %v vs %v", pushT, baseT)
	}
	if prof[0].Intensity() <= 0 {
		t.Fatal("intensity must be positive on the base DDC")
	}
}

func TestExecAccumulatesRepeatedOperators(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(32 * mem.PageSize))
	p := m.NewProcess()
	th := sim.NewThread("q")
	ex := profile.NewExec(th, p, nil)
	for i := 0; i < 3; i++ {
		ex.Run("Op", func(env *ddc.Env) { env.Compute(1000) })
	}
	prof := ex.Profile()
	if len(prof) != 1 || prof[0].Calls != 3 {
		t.Fatalf("profile = %+v", prof)
	}
	if ex.Total() != prof[0].Time {
		t.Fatal("Total != summed op time")
	}
	if prof[0].Pushed {
		t.Fatal("Op was never marked for pushdown")
	}
}

func TestByIntensityRanksMemoryBoundFirst(t *testing.T) {
	m := ddc.MustMachine(ddc.BaseDDC(8 * mem.PageSize))
	p := m.NewProcess()
	a := p.Space.AllocPages(256*mem.PageSize, "buf")
	th := sim.NewThread("q")
	ex := profile.NewExec(th, p, nil)
	ex.Run("cpu", func(env *ddc.Env) { env.Compute(1_000_000) })
	ex.Run("mem", func(env *ddc.Env) {
		for i := 0; i < 200; i++ {
			env.ReadI64(a + mem.Addr(i)*mem.PageSize)
		}
	})
	if names := profile.ByIntensity(ex.Profile()); names[0] != "mem" {
		t.Fatalf("ByIntensity = %v", names)
	}
}

// TestRunAllocatesNothingWithoutRegistry pins a local operator call's host
// cost once its name is known: with no histogram registry attached, Run must
// not build the operator's histogram name (it escapes into the registry's
// map, so building it allocates on every call).
func TestRunAllocatesNothingWithoutRegistry(t *testing.T) {
	p := ddc.MustMachine(ddc.Linux()).NewProcess()
	ex := profile.NewExec(sim.NewThread("q"), p, nil)
	op := func(env *ddc.Env) { env.Compute(1) }
	ex.Run("Selection", op)
	if n := testing.AllocsPerRun(100, func() { ex.Run("Selection", op) }); n != 0 {
		t.Fatalf("Run allocates %v objects a call without a registry", n)
	}
}
