package trace

import (
	"strings"
	"testing"

	"teleport/internal/sim"
)

func TestNilRingIsSafe(t *testing.T) {
	var r *Ring
	r.Add(Event{Kind: KindRemoteFault})
	if r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil ring must be inert")
	}
}

func TestRingKeepsLastN(t *testing.T) {
	r := New(3)
	for i := 0; i < 5; i++ {
		r.Add(Event{At: sim.Time(i), Kind: KindEviction, Page: uint64(i)})
	}
	if r.total != 5 {
		t.Fatalf("Total = %d", r.total)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, e := range evs {
		if e.Page != uint64(i+2) {
			t.Fatalf("events = %v (not oldest-first window)", evs)
		}
	}
}

func TestCountByKindAndDump(t *testing.T) {
	r := New(10)
	r.Add(Event{Kind: KindCoherence, Who: "a"})
	r.Add(Event{Kind: KindCoherence, Who: "b"})
	r.Add(Event{Kind: KindPushRollback, Who: "c"})
	counts := r.CountByKind()
	if counts[KindCoherence] != 2 || counts[KindPushRollback] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	var sb strings.Builder
	Dump(&sb, "", r.Events(), r.Dropped())
	out := sb.String()
	if !strings.Contains(out, "coherence") || !strings.Contains(out, "push-rollback") {
		t.Fatalf("dump = %s", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("dump lines = %d", strings.Count(out, "\n"))
	}
}

// TestRingWraparound drives the ring through several full wraps and checks
// the retained window, ordering, and totals at every step — including the
// exact-capacity boundary where the append path hands over to the ring path.
func TestRingWraparound(t *testing.T) {
	const capacity = 4
	r := New(capacity)
	for i := 0; i < 3*capacity+1; i++ {
		r.Add(Event{At: sim.Time(i), Kind: KindRPCRetry, Page: uint64(i)})
		if want := uint64(i + 1); r.total != want {
			t.Fatalf("after %d adds Total = %d, want %d", i+1, r.total, want)
		}
		evs := r.Events()
		wantLen := i + 1
		if wantLen > capacity {
			wantLen = capacity
		}
		if len(evs) != wantLen {
			t.Fatalf("after %d adds retained %d, want %d", i+1, len(evs), wantLen)
		}
		first := i + 1 - wantLen
		for j, e := range evs {
			if e.Page != uint64(first+j) {
				t.Fatalf("after %d adds events = %v (want pages %d..%d oldest-first)",
					i+1, evs, first, i)
			}
		}
	}
}

// Dropped is total minus retained, and a wrapped ring's Dump leads with the
// loss so a reader never mistakes a suffix for the whole run. An unwrapped
// ring reports zero and dumps without the banner.
func TestDroppedAndDumpBanner(t *testing.T) {
	r := New(3)
	r.Add(Event{Kind: KindCoherence, Who: "a"})
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d before wraparound", r.Dropped())
	}
	var clean strings.Builder
	Dump(&clean, "", r.Events(), r.Dropped())
	if strings.Contains(clean.String(), "# dropped") {
		t.Fatalf("unwrapped dump carries a drop banner: %s", clean.String())
	}
	for i := 0; i < 4; i++ {
		r.Add(Event{Kind: KindCoherence, Who: "b"})
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2 (5 added, 3 retained)", r.Dropped())
	}
	var sb strings.Builder
	Dump(&sb, "", r.Events(), r.Dropped())
	if !strings.HasPrefix(sb.String(), "# dropped 2 events\n") {
		t.Fatalf("dump = %q, want leading drop banner", sb.String())
	}
	var nilRing *Ring
	if nilRing.Dropped() != 0 {
		t.Fatal("nil ring Dropped != 0")
	}
}

// TestRingWraparoundCountByKind: kind tallies must reflect only the retained
// window, not overwritten history.
func TestRingWraparoundCountByKind(t *testing.T) {
	r := New(3)
	r.Add(Event{Kind: KindPoolCrash})
	r.Add(Event{Kind: KindPoolCrash})
	r.Add(Event{Kind: KindPoolRecover})
	r.Add(Event{Kind: KindFallbackLocal}) // overwrites the first pool-crash
	counts := r.CountByKind()
	if counts[KindPoolCrash] != 1 || counts[KindPoolRecover] != 1 || counts[KindFallbackLocal] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if r.total != 4 {
		t.Fatalf("Total = %d", r.total)
	}
}

func TestFaultKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindFaultInjected: "fault-injected",
		KindRPCRetry:      "rpc-retry",
		KindPoolCrash:     "pool-crash",
		KindPoolRecover:   "pool-recover",
		KindFallbackLocal: "fallback-local",
	}
	for k, name := range want {
		if k.String() != name {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if KindRemoteFault.String() != "remote-fault" || KindSync.String() != "sync" {
		t.Fatal("kind names")
	}
	if !strings.HasPrefix(Kind(99).String(), "kind(") {
		t.Fatal("unknown kind")
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	r := New(0)
	r.Add(Event{Kind: KindSync})
	r.Add(Event{Kind: KindWriteback})
	if len(r.Events()) != 1 || r.Events()[0].Kind != KindWriteback {
		t.Fatalf("events = %v", r.Events())
	}
}
