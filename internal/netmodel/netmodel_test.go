package netmodel

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"teleport/internal/hw"
	"teleport/internal/sim"
)

func testFabric() (*Fabric, *sim.Thread) {
	cfg := hw.Testbed()
	return New(&cfg), sim.NewThread("net-test")
}

// msgTime is the virtual time one unfaulted n-byte message costs on f.
func msgTime(f *Fabric, n int) sim.Time { return sim.FromNs(f.cfg.MsgNs(n)) }

func TestSendChargesLatencyPlusBandwidth(t *testing.T) {
	f, th := testFabric()
	f.Send(th, 4096, ClassPageFault)
	want := msgTime(f, 4096)
	if th.Now() != want {
		t.Fatalf("Send charged %v, want %v", th.Now(), want)
	}
	if s := f.Stats(ClassPageFault); s.Msgs != 1 || s.Bytes != 4096 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRoundTripCountsBothMessages(t *testing.T) {
	f, th := testFabric()
	f.RoundTrip(th, 100, 4096, ClassPushdown)
	if s := f.Stats(ClassPushdown); s.Msgs != 2 || s.Bytes != 4196 {
		t.Fatalf("stats = %+v", s)
	}
	if want := sim.FromNs(f.cfg.RoundTripNs(100, 4096)); th.Now() != want {
		t.Fatalf("RoundTrip charged %v, want %v", th.Now(), want)
	}
}

func TestTotalAndReset(t *testing.T) {
	f, th := testFabric()
	f.Send(th, 10, ClassCoherence)
	f.Send(th, 20, ClassSync)
	if tot := f.Total(); tot.Msgs != 2 || tot.Bytes != 30 {
		t.Fatalf("total = %+v", tot)
	}
}

// scriptedInjector replays a fixed fate sequence, one entry per
// transmission-attempt check.
type scriptedInjector struct {
	lost  []bool
	extra []float64
	i     int
}

func (s *scriptedInjector) SendFault(class int) (bool, float64) {
	if s.i >= len(s.lost) {
		return false, 0
	}
	l := s.lost[s.i]
	var e float64
	if s.i < len(s.extra) {
		e = s.extra[s.i]
	}
	s.i++
	return l, e
}

func TestSendRetransmitsOnLoss(t *testing.T) {
	f, th := testFabric()
	// First attempt lost, retransmission delivered.
	f.SetInjector(&scriptedInjector{lost: []bool{true, false}})
	f.Send(th, 4096, ClassPageFault)
	s := f.Stats(ClassPageFault)
	if s.Msgs != 2 || s.Bytes != 8192 {
		t.Fatalf("stats = %+v, want 2 msgs / 8192 bytes (original + retransmit)", s)
	}
	if s.Retries != 1 || s.Drops != 1 {
		t.Fatalf("retries/drops = %d/%d, want 1/1", s.Retries, s.Drops)
	}
	// Charged: two transmissions plus at least the retry backoff.
	min := 2*msgTime(f, 4096) + sim.FromNs(retryBackoffRTTs*f.cfg.NetLatencyNs)
	if th.Now() < min {
		t.Fatalf("charged %v, want ≥ %v", th.Now(), min)
	}
}

func TestSendLatencySpikeChargesButDoesNotRetry(t *testing.T) {
	f, th := testFabric()
	f.SetInjector(&scriptedInjector{lost: []bool{false}, extra: []float64{50000}})
	f.Send(th, 100, ClassCoherence)
	s := f.Stats(ClassCoherence)
	if s.Msgs != 1 || s.Retries != 0 || s.Drops != 0 {
		t.Fatalf("stats = %+v, want a single spiked delivery", s)
	}
	want := msgTime(f, 100) + sim.FromNs(50000)
	if th.Now() != want {
		t.Fatalf("charged %v, want %v", th.Now(), want)
	}
}

func TestRoundTripRetransmitsWholeRPC(t *testing.T) {
	f, th := testFabric()
	// Response leg of the first attempt lost; second attempt clean.
	f.SetInjector(&scriptedInjector{lost: []bool{false, true, false, false}})
	f.RoundTrip(th, 100, 4096, ClassPushdown)
	s := f.Stats(ClassPushdown)
	if s.Msgs != 4 || s.Bytes != 2*4196 {
		t.Fatalf("stats = %+v, want both legs counted twice", s)
	}
	if s.Retries != 1 || s.Drops != 1 {
		t.Fatalf("retries/drops = %d/%d, want 1/1", s.Retries, s.Drops)
	}
}

func TestRetryCapDelivers(t *testing.T) {
	f, th := testFabric()
	// Injector loses everything: the transport must still terminate and
	// count maxSendAttempts-1 retries.
	all := make([]bool, 64)
	for i := range all {
		all[i] = true
	}
	f.SetInjector(&scriptedInjector{lost: all})
	f.Send(th, 64, ClassSync)
	s := f.Stats(ClassSync)
	if s.Retries != maxSendAttempts-1 {
		t.Fatalf("retries = %d, want %d", s.Retries, maxSendAttempts-1)
	}
	if s.Msgs != maxSendAttempts {
		t.Fatalf("msgs = %d, want %d", s.Msgs, maxSendAttempts)
	}
}

// TestTotalAndResetAllClasses drives every class, including the retry/drop
// counters, and checks Total aggregates all of them.
func TestTotalAndResetAllClasses(t *testing.T) {
	f, th := testFabric()
	classes := []Class{ClassPageFault, ClassWriteback, ClassCoherence, ClassPushdown, ClassStorage, ClassSync, ClassReplica}
	if len(classes) != int(numClasses) {
		t.Fatalf("test covers %d classes, fabric has %d", len(classes), numClasses)
	}
	for _, c := range classes {
		f.SetInjector(&scriptedInjector{lost: []bool{true, false}})
		f.Send(th, 100, c) // 2 msgs, 1 retry, 1 drop per class
		s := f.Stats(c)
		if s.Msgs != 2 || s.Bytes != 200 || s.Retries != 1 || s.Drops != 1 {
			t.Fatalf("class %v stats = %+v", c, s)
		}
	}
	tot := f.Total()
	n := int64(len(classes))
	if tot.Msgs != 2*n || tot.Bytes != 200*n || tot.Retries != n || tot.Drops != n {
		t.Fatalf("total = %+v, want aggregates over %d classes", tot, n)
	}
}

func TestClassString(t *testing.T) {
	if ClassCoherence.String() != "coherence" {
		t.Fatalf("got %q", ClassCoherence.String())
	}
	if Class(99).String() != "class(99)" {
		t.Fatalf("got %q", Class(99).String())
	}
}

func TestEncodeRunsBasic(t *testing.T) {
	entries := []PageEntry{
		{0, true}, {1, true}, {2, true}, // one writable run
		{3, false}, {4, false}, // permission change splits the run
		{10, false}, // gap splits the run
	}
	runs, err := EncodeRuns(entries)
	if err != nil {
		t.Fatal(err)
	}
	want := []PageRun{{0, 3, true}, {3, 2, false}, {10, 1, false}}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("runs = %+v, want %+v", runs, want)
	}
}

func TestEncodeRunsUnsortedInput(t *testing.T) {
	runs, err := EncodeRuns([]PageEntry{{5, false}, {3, false}, {4, false}})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Start != 3 || runs[0].Count != 3 {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestEncodeRunsDuplicateRejected(t *testing.T) {
	if _, err := EncodeRuns([]PageEntry{{1, true}, {1, false}}); err == nil {
		t.Fatal("expected error for duplicate page")
	}
}

func TestEncodeRunsEmpty(t *testing.T) {
	runs, err := EncodeRuns(nil)
	if err != nil || runs != nil {
		t.Fatalf("EncodeRuns(nil) = %v, %v", runs, err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	runs := []PageRun{{0, 3, true}, {100, 1, false}}
	buf := AppendRuns(nil, runs)
	if len(buf) != RunsWireSize(runs) {
		t.Fatalf("wire size mismatch: %d vs %d", len(buf), RunsWireSize(runs))
	}
	got, err := UnmarshalRuns(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runs) {
		t.Fatalf("round trip: %+v vs %+v", got, runs)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalRuns([]byte{1}); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := UnmarshalRuns([]byte{1, 0, 0, 0, 9}); err == nil {
		t.Fatal("truncated run accepted")
	}
}

// Property: encode → decode is the identity on duplicate-free page sets.
func TestRLERoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		seen := map[uint64]bool{}
		var entries []PageEntry
		for i := 0; i < int(n); i++ {
			id := uint64(r.Intn(2000))
			if seen[id] {
				continue
			}
			seen[id] = true
			entries = append(entries, PageEntry{ID: id, Writable: r.Intn(2) == 0})
		}
		runs, err := EncodeRuns(entries)
		if err != nil {
			return false
		}
		got := DecodeRuns(runs)
		sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
		if len(entries) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRLECompressionOnDenseList confirms the §6 observation: a dense
// resident set compresses by far more than 20×.
func TestRLECompressionOnDenseList(t *testing.T) {
	entries := make([]PageEntry, 262144) // 1 GB of resident 4 KB pages
	for i := range entries {
		entries[i] = PageEntry{ID: uint64(i), Writable: i%4096 < 2048}
	}
	runs, err := EncodeRuns(entries)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(RawListWireSize(len(entries))) / float64(RunsWireSize(runs))
	if ratio < 20 {
		t.Fatalf("compression ratio = %.1f, want ≥ 20 (paper §6)", ratio)
	}
}
