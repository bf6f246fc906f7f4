package teleport_test

import (
	"errors"
	"testing"

	"teleport"
)

// TestFacadeQuickstart exercises the README's quickstart flow end to end.
func TestFacadeQuickstart(t *testing.T) {
	m := teleport.NewDDCMachine(64 * teleport.PageSize)
	p := m.NewProcess()
	rt := teleport.NewRuntime(p, 1)
	th := teleport.NewThread("worker")

	const n = 100000
	base := p.Space.Alloc(8*n, "vec")
	env := p.NewEnv(th)
	for i := 0; i < 1000; i++ { // touch a little from the compute pool
		env.WriteI64(base+teleport.Addr(i*8), int64(i))
	}

	var sum int64
	stats, err := rt.Pushdown(th, func(env *teleport.Env) {
		for i := 0; i < 1000; i++ {
			sum += env.ReadI64(base + teleport.Addr(i*8))
		}
	}, teleport.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 999*1000/2 {
		t.Fatalf("sum = %d", sum)
	}
	if stats.Total() <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFacadeConstructors(t *testing.T) {
	if m := teleport.NewLocalMachine(); m.Cfg.Disaggregated {
		t.Fatal("local machine must be monolithic")
	}
	if m := teleport.NewLinuxSSDMachine(1 << 20); m.Cfg.CacheBytes != 1<<20 {
		t.Fatal("ssd machine config")
	}
	cfg := teleport.Testbed()
	if cfg.ComputeClockGHz != 2.1 {
		t.Fatal("testbed clock")
	}
	if _, err := teleport.NewMachine(teleport.MachineConfig{}); err == nil {
		t.Fatal("zero config must be rejected")
	}
}

func TestFacadeErrorsExported(t *testing.T) {
	m := teleport.NewLocalMachine()
	p := m.NewProcess()
	rt := teleport.NewRuntime(p, 1)
	_, err := rt.Pushdown(teleport.NewThread("t"), func(*teleport.Env) {}, teleport.Options{})
	if !errors.Is(err, teleport.ErrNotDisaggregated) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeSchedulerAndFlags(t *testing.T) {
	s := teleport.NewScheduler()
	var end teleport.Time
	s.Spawn("a", 0, func(th *teleport.Thread) {
		th.Advance(5)
		end = th.Now()
	})
	s.Run()
	if end != 5 {
		t.Fatal("scheduler facade broken")
	}
	// The flag set must be distinct bits (FlagDefault is zero).
	flags := []teleport.Flags{
		teleport.FlagPSO, teleport.FlagNoCoherence, teleport.FlagEagerSync,
		teleport.FlagMigrateProcess, teleport.FlagEvictRanges,
	}
	seen := teleport.FlagDefault
	for _, f := range flags {
		if f == 0 || seen&f != 0 {
			t.Fatalf("flags overlap: %b", f)
		}
		seen |= f
	}
}
