package bench

import (
	"reflect"
	"strings"
	"testing"
)

// renderTable flattens a table to one comparable string.
func renderTable(t *Table) string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// TestParallelDeterminism is the contract behind the host-parallel harness:
// a figure regenerated with data points fanned out across host workers is
// byte-identical to the sequential run — tables, virtual times, and fault
// counters — both fault-free and under chaos injection. Run it with -race
// to also certify the runs share no mutable state.
func TestParallelDeterminism(t *testing.T) {
	for _, chaos := range []string{"", "crashy-pool"} {
		name := "clean"
		if chaos != "" {
			name = "chaos-" + chaos
		}
		t.Run(name, func(t *testing.T) {
			opts := smallOpts()
			opts.ChaosProfile = chaos

			seqOpts := opts
			seqOpts.Parallel = 1
			parOpts := opts
			parOpts.Parallel = 4

			// One full figure: Q_filter across local / base DDC / TELEPORT
			// exercises paging, pushdown, and the per-operator profile.
			seqTab, err := Run("12", seqOpts)
			if err != nil {
				t.Fatal(err)
			}
			parTab, err := Run("12", parOpts)
			if err != nil {
				t.Fatal(err)
			}
			if s, p := renderTable(seqTab), renderTable(parTab); s != p {
				t.Errorf("figure 12 differs between sequential and parallel runs:\n--- sequential\n%s--- parallel\n%s", s, p)
			}

			// Workload-level check: exact virtual nanoseconds and the full
			// fault-recovery counter set.
			seqRes, err := RunWorkload("Q6", "teleport", seqOpts)
			if err != nil {
				t.Fatal(err)
			}
			parRes, err := RunWorkloads([]string{"Q6", "Q6"}, "teleport", parOpts)
			if err != nil {
				t.Fatal(err)
			}
			for i, pr := range parRes {
				if pr.Nanos != seqRes.Nanos {
					t.Errorf("parallel run %d: %d virtual ns, sequential %d", i, pr.Nanos, seqRes.Nanos)
				}
				if !reflect.DeepEqual(pr.Fault, seqRes.Fault) {
					t.Errorf("parallel run %d fault counters diverge:\n%v\nvs\n%v", i, pr.Fault, seqRes.Fault)
				}
			}

			// Intra-run parallelism: the same multi-machine simulation with
			// its domains drained by 1 vs 4 vs 8 host workers must produce a
			// deep-equal result — makespan, per-node clocks, fault counters,
			// even the baton-handoff count.
			clOpts := opts
			clOpts.SimWorkers = 1
			base, err := RunCluster(clOpts, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{4, 8} {
				clOpts.SimWorkers = w
				got, err := RunCluster(clOpts, 4, 3)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("cluster run with %d sim workers diverged from sequential:\n%+v\nvs\n%+v", w, got, base)
				}
			}
		})
	}
}

// TestRunAllParallelOrder checks RunAll's ordering contract: with figures
// racing on the worker pool, the returned slice still follows registration
// order. Workloads are tiny — this certifies plumbing, not numbers.
func TestRunAllParallelOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	opts := Options{Scale: 0.1, GraphNV: 2000, Words: 8000, Seed: 1, CacheFrac: 0.02, Parallel: 4}
	tables, err := RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	ids := Figures()
	if len(tables) != len(ids) {
		t.Fatalf("got %d tables, want %d", len(tables), len(ids))
	}
	for i, tab := range tables {
		if tab == nil {
			t.Fatalf("table %d (figure %s) is nil", i, ids[i])
		}
		if !strings.Contains(tab.Figure, ids[i]) {
			t.Errorf("table %d is %q, want figure %s", i, tab.Figure, ids[i])
		}
	}
}
