package dist

import (
	"testing"

	"teleport/internal/hw"
)

// A TPC-H-ish reference point: tens of GB scanned in tens of seconds.
var refWorkload = Workload{Bytes: 50 << 30, LocalSeconds: 30}

func TestSparkSQLNearPaperRatio(t *testing.T) {
	cfg := hw.Testbed()
	r := SparkSQL().CostOfScaling(refWorkload, &cfg)
	if r < 1.05 || r > 1.45 {
		t.Fatalf("SparkSQL cost of scaling = %.2f, want ≈1.2 (Figure 1b)", r)
	}
}

func TestVerticaNearPaperRatio(t *testing.T) {
	cfg := hw.Testbed()
	r := Vertica().CostOfScaling(refWorkload, &cfg)
	if r < 1.9 || r > 2.7 {
		t.Fatalf("Vertica cost of scaling = %.2f, want ≈2.3 (Figure 1b)", r)
	}
}

func TestCostMonotonicInShuffle(t *testing.T) {
	cfg := hw.Testbed()
	p := SparkSQL()
	base := p.CostOfScaling(refWorkload, &cfg)
	p.ShuffleFraction *= 3
	if p.CostOfScaling(refWorkload, &cfg) <= base {
		t.Fatal("more shuffle must cost more")
	}
}

func TestCostDecreasesWithWorkers(t *testing.T) {
	cfg := hw.Testbed()
	few, many := SparkSQL(), SparkSQL()
	few.Workers, many.Workers = 2, 32
	w := Workload{Bytes: 200 << 30, LocalSeconds: 10} // shuffle-bound
	if many.CostOfScaling(w, &cfg) >= few.CostOfScaling(w, &cfg) {
		t.Fatal("parallel shuffle should reduce the scaling cost")
	}
}

func TestDegenerateWorkload(t *testing.T) {
	cfg := hw.Testbed()
	if SparkSQL().CostOfScaling(Workload{}, &cfg) != 1 {
		t.Fatal("zero workload should normalise to 1")
	}
}
