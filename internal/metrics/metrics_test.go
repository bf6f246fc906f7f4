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
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("x")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	h := r.Histogram("x")
	h.Observe(sim.Microsecond)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram recorded")
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
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Add(2)
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").Set(5)
	if got := r.Gauge("g").Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h := r.HistogramWithBuckets("h", []int64{10, 100})
	h.Observe(5)   // first bucket (≤10)
	h.Observe(10)  // first bucket (inclusive)
	h.Observe(50)  // second
	h.Observe(999) // overflow
	s := r.Snapshot().Histograms["h"]
	if want := []int64{2, 1, 1}; len(s.Counts) != 3 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 4 || s.SumNs != 5+10+50+999 {
		t.Fatalf("count/sum = %d/%d", s.Count, s.SumNs)
	}
}

// The exported snapshot lists every metric once, under its type, names sorted
// within it — the registry's deterministic iteration order.
func TestNamesSortedAndTyped(t *testing.T) {
	r := NewRegistry()
	r.Counter("z")
	r.Counter("a")
	r.Gauge("m")
	r.Histogram("k")
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	at := -1
	for _, key := range []string{`"counters"`, `"a"`, `"z"`, `"gauges"`, `"m"`, `"histograms"`, `"k"`} {
		i := strings.Index(buf.String(), key)
		if i <= at || strings.Count(buf.String(), key) != 1 {
			t.Fatalf("%s out of order or repeated in:\n%s", key, buf.String())
		}
		at = i
	}
}

// Two registries fed the same sequence must serialise byte-identically —
// the property that makes same-seed runs comparable file-to-file.
func TestSnapshotJSONDeterministic(t *testing.T) {
	feed := func() *Registry {
		r := NewRegistry()
		for _, n := range []string{"net.pagefault.msgs", "ssd.read", "fault.remote", "a", "z"} {
			r.Counter(n).Add(int64(len(n)))
		}
		r.Gauge("push.running").Set(2)
		for i := 0; i < 40; i++ {
			r.Histogram("lat").Observe(sim.Time(i * 997))
		}
		return r
	}
	var a, b bytes.Buffer
	if err := feed().Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := feed().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	if a.Len() == 0 {
		t.Fatal("empty snapshot")
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
