package metrics

import (
	"bytes"
	"strings"
	"testing"

	"teleport/internal/sim"
)

// A nil registry hands out nil handles whose methods are all no-ops — the
// disabled state costs nothing and needs no call-site guards.
func TestNilSafety(t *testing.T) {
	var r *Registry
	for _, h := range []*Histogram{r.Histogram("x"), r.Hist(HistSSDRead), NewRegistry().Hist(NoHist)} {
		if h != nil {
			t.Fatalf("disabled histogram handle is not nil")
		}
		h.Observe(sim.Microsecond) // must not panic
	}
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot non-nil")
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatalf("nil snapshot WriteJSON: %v", err)
	}

	var ts *TimeSet
	ts.Add(CompSSDRead, sim.Second) // must not panic
	ts.AddSet(TimeSet{})
	(&TimeSet{}).Add(NoComp, sim.Second) // charged to nothing
}

// layerStats stands in for a layer's typed stats struct: two exported
// counters, one of them also per instance, and a field nobody exports.
type layerStats struct {
	Faults   int64 `ctr:"fault" per:"faults"`
	Repairs  int64 `ctr:"repair"`
	Internal int64
	Name     string
}

// Counters live in the layers' structs; a Ledger reads the tagged fields out
// under their names — summed over instances under `ctr`, per instance under
// `per` — and the fixed histograms bucket by upper bound.
func TestCountersGaugesHistograms(t *testing.T) {
	shards := []layerStats{{Faults: 1, Repairs: 2, Internal: 9}, {Faults: 10, Repairs: 20, Internal: 9}}
	s := NewSnapshot()
	total := NewLedger(layerStats{}, "ctr", "shard.")
	for i := range shards {
		total.Read(s.Counters, &shards[i])
		NewLedger(layerStats{}, "per", "shard."+string(rune('0'+i))+".").Read(s.Counters, &shards[i])
	}
	want := map[string]int64{"shard.fault": 11, "shard.repair": 22, "shard.0.faults": 1, "shard.1.faults": 10}
	if len(s.Counters) != len(want) {
		t.Fatalf("counters = %v, want %v", s.Counters, want)
	}
	for k, v := range want {
		if s.Counters[k] != v {
			t.Fatalf("counter %s = %d, want %d (all: %v)", k, s.Counters[k], v, s.Counters)
		}
	}
	if sum := Sum(shards); sum != (layerStats{Faults: 11, Repairs: 22, Internal: 18}) {
		t.Fatalf("Sum = %+v", sum)
	}

	r := NewRegistry()
	h := r.Hist(HistSSDRead)
	h.Observe(50)             // first bucket (≤100)
	h.Observe(100)            // first bucket (inclusive)
	h.Observe(150)            // second (≤200)
	h.Observe(2 * 1e9)        // overflow (> 1 s)
	r.Hist(NoHist).Observe(7) // feeds nothing
	hs := r.Snapshot().Histograms["ssd.read.ns"]
	if n := len(hs.Counts); n != len(hs.BoundsNs)+1 || hs.Counts[0] != 2 || hs.Counts[1] != 1 || hs.Counts[n-1] != 1 {
		t.Fatalf("bucket counts = %v over bounds %v", hs.Counts, hs.BoundsNs)
	}
	if hs.Count != 4 || hs.SumNs != 50+100+150+2*1e9 {
		t.Fatalf("count/sum = %d/%d", hs.Count, hs.SumNs)
	}
}

// The exported snapshot lists every metric once, under its type, names sorted
// within it. Of the fixed histograms the wire classes are always listed and
// the others once observed; a named one from its first use.
func TestNamesSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Histogram("op.k.ns")
	r.Hist(HistPushE2E).Observe(1)
	s := r.Snapshot()
	s.Counters["z"], s.Counters["a"], s.Gauges["m"] = 1, 2, 3
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	at := -1
	for _, key := range []string{`"counters"`, `"a"`, `"z"`, `"gauges"`, `"m"`, `"histograms"`,
		`"net.coherence.ns"`, `"net.writeback.ns"`, `"op.k.ns"`, `"push.e2e.ns"`} {
		i := strings.Index(buf.String(), key)
		if i <= at || strings.Count(buf.String(), key) != 1 {
			t.Fatalf("%s out of order or repeated in:\n%s", key, buf.String())
		}
		at = i
	}
	if strings.Contains(buf.String(), "ssd.read.ns") {
		t.Fatalf("never-observed device histogram listed:\n%s", buf.String())
	}
}

// Two registries fed the same sequence must serialise byte-identically —
// the property that makes same-seed runs comparable file-to-file.
func TestSnapshotJSONDeterministic(t *testing.T) {
	feed := func() *Snapshot {
		r := NewRegistry()
		for i := 0; i < 40; i++ {
			r.Histogram("op.lat.ns").Observe(sim.Time(i * 997))
			r.Hist(HistFaultRemote).Observe(sim.Time(i * 13))
		}
		s := r.Snapshot()
		for _, n := range []string{"net.pagefault.msgs", "ssd.read", "fault.remote", "a", "z"} {
			s.Counters[n] = int64(len(n))
		}
		s.Gauges["push.running"] = 2
		return s
	}
	var a, b bytes.Buffer
	if err := feed().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := feed().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestTimeSetAttribution(t *testing.T) {
	var ts TimeSet
	ts.Add(CompWirePageFault, 100)
	ts.Add(CompWirePageFault, 50)
	ts.Add(CompSSDRead, 30)
	ts.Add(CompPushQueue, -5) // non-positive charges are dropped
	if ts.TotalNs() != 180 {
		t.Fatalf("total = %d, want 180", ts.TotalNs())
	}
	if ts.LayerNs("net") != 150 || ts.LayerNs("ssd") != 30 || ts.LayerNs("pushdown") != 0 {
		t.Fatalf("layer sums wrong: net=%d ssd=%d push=%d",
			ts.LayerNs("net"), ts.LayerNs("ssd"), ts.LayerNs("pushdown"))
	}

	before := ts
	ts.Add(CompSSDRead, 20)
	d := ts.Sub(before)
	if d.TotalNs() != 20 || d[CompSSDRead] != 20 {
		t.Fatalf("delta = %v", d)
	}

	// Every component names itself and belongs to a layer.
	for c := Comp(0); c < NumComps; c++ {
		if c.String() == "comp(?)" || c.Layer() == "?" {
			t.Fatalf("component %d unnamed", c)
		}
	}
}
