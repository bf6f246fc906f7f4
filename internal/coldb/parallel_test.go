package coldb

import (
	"testing"

	"teleport/internal/core"
	"teleport/internal/ddc"
	"teleport/internal/mem"
	"teleport/internal/sim"
)

func buildAggFixture(t *testing.T, cfg ddc.Config, n int) (*ddc.Process, *Column) {
	t.Helper()
	m := ddc.MustMachine(cfg)
	p := m.NewProcess()
	db := NewDB(p)
	tab := db.CreateTable("r", n, ColumnSpec{"v", F64})
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%977) + 0.5
	}
	tab.Col("v").LoadF64(p, vals)
	return p, tab.Col("v")
}

func TestParallelAggregateMatchesSerial(t *testing.T) {
	p, col := buildAggFixture(t, ddc.Linux(), 50000)
	serialEnv := p.NewEnv(sim.NewThread("serial"))
	for _, kind := range []AggKind{AggSum, AggCount, AggMin, AggMax} {
		want := Aggregate(serialEnv, col, kind, nil)
		for _, workers := range []int{1, 3, 8} {
			got, _, err := ParallelAggregate(p, nil, workers, col, kind)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("kind %d workers %d: %v vs %v", kind, workers, got, want)
			}
		}
	}
}

func TestParallelAggregateScalesDown(t *testing.T) {
	p, col := buildAggFixture(t, ddc.Linux(), 200000)
	_, one, err := ParallelAggregate(p, nil, 1, col, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	_, eight, err := ParallelAggregate(p, nil, 8, col, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if float64(eight) > 0.35*float64(one) {
		t.Fatalf("8 workers (%v) should be much faster than 1 (%v)", eight, one)
	}
}

func TestParallelAggregatePushdownSharesContexts(t *testing.T) {
	p, col := buildAggFixture(t, ddc.BaseDDC(64*mem.PageSize), 100000)
	wantGot, _, err := ParallelAggregate(p, nil, 4, col, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(p, 2)
	got, _, err := ParallelAggregate(p, rt, 4, col, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantGot {
		t.Fatalf("pushed parallel aggregate differs: %v vs %v", got, wantGot)
	}
	if rt.Stats().Calls != 4 {
		t.Fatalf("expected 4 pushdown calls, got %d", rt.Stats().Calls)
	}
	// Two-context runtime, four workers: at least two calls must have
	// queued behind the pool (serialisation is observable, not silent).
	_, two, err := ParallelAggregate(p, core.NewRuntime(p, 2), 4, col, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	_, four, err := ParallelAggregate(p, core.NewRuntime(p, 4), 4, col, AggSum)
	if err != nil {
		t.Fatal(err)
	}
	if four > two {
		t.Fatalf("more contexts should not be slower: 2ctx %v, 4ctx %v", two, four)
	}
}
