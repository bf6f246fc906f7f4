package fault

import (
	"strings"
	"testing"

	"teleport/internal/sim"
)

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if lost, extra := p.SendFault(); lost || extra != 0 {
		t.Fatal("nil plan injected a net fault")
	}
	for _, tc := range targetCases {
		if _, down := p.DownAt(tc.tg, sim.Second); down {
			t.Fatalf("nil plan reported %s down", tc.name)
		}
		if up := p.UpAt(sim.Second, tc.tg); up != sim.Second {
			t.Fatalf("nil plan UpAt(%s) = %v, want the query instant", tc.name, up)
		}
		if ws := p.Windows(tc.tg, sim.Second); ws != nil {
			t.Fatalf("nil plan returned windows %v for %s", ws, tc.name)
		}
		p.Pin(tc.tg, Window{Down: 1, Up: 2}) // must not panic
	}
	if p.Downtime(sim.Second, Pool(), Shard(0)) != 0 {
		t.Fatal("nil plan reported downtime")
	}
	if p.CtxCrash() || p.SSDReadError() {
		t.Fatal("nil plan injected a crash")
	}
	if _, crash := p.CtxCrashMid(); crash {
		t.Fatal("nil plan armed a mid-crash")
	}
	if c := p.Counters(); c != (Counters{}) {
		t.Fatalf("nil plan counters = %v", c)
	}
}

func TestZeroProfileInjectsNothing(t *testing.T) {
	p := NewPlan(Profile{}, 7)
	for i := 0; i < 1000; i++ {
		if lost, extra := p.SendFault(); lost || extra != 0 {
			t.Fatal("zero profile injected a net fault")
		}
	}
	for _, tc := range targetCases {
		if _, down := p.DownAt(tc.tg, 10*sim.Second); down {
			t.Fatalf("zero profile took %s down", tc.name)
		}
	}
	if p.CtxCrash() || p.SSDReadError() {
		t.Fatal("zero profile injected a crash")
	}
}

func TestSendFaultRatesRoughlyMatch(t *testing.T) {
	p := NewPlan(FlakyNet(), 42)
	const n = 200000
	var lost, spiked int
	for i := 0; i < n; i++ {
		l, extra := p.SendFault()
		if l {
			lost++
		}
		if extra > 0 {
			spiked++
			if extra < 5e3 || extra > 20e3 {
				t.Fatalf("spike %v ns outside [5000, 20000]", extra)
			}
		}
	}
	c := p.Counters()
	if int(c.Drops+c.Corruptions) != lost || int(c.Spikes) != spiked {
		t.Fatalf("counters %v disagree with observations lost=%d spiked=%d", c, lost, spiked)
	}
	lossRate := float64(lost) / n
	if lossRate < 0.008 || lossRate > 0.016 {
		t.Fatalf("loss rate %.4f, want ≈0.012", lossRate)
	}
}

func TestSameSeedSameStream(t *testing.T) {
	a, b := NewPlan(Chaos(), 99), NewPlan(Chaos(), 99)
	for i := 0; i < 5000; i++ {
		la, ea := a.SendFault()
		lb, eb := b.SendFault()
		if la != lb || ea != eb {
			t.Fatalf("streams diverge at draw %d", i)
		}
		if a.CtxCrash() != b.CtxCrash() || a.SSDReadError() != b.SSDReadError() {
			t.Fatalf("crash streams diverge at draw %d", i)
		}
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("counters diverge: %v vs %v", a.Counters(), b.Counters())
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := NewPlan(FlakyNet(), 1), NewPlan(FlakyNet(), 2)
	same := true
	for i := 0; i < 2000; i++ {
		la, _ := a.SendFault()
		lb, _ := b.SendFault()
		if la != lb {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault streams")
	}
}

func TestByName(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, p.Name, err)
		}
	}
	if p, err := ByName(""); err != nil || p != (Profile{Name: "none"}) {
		t.Fatalf("ByName(\"\") = %+v, %v", p, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	root := sim.NewRNG(123)
	a := root.Derive(1)
	b := root.Derive(2)
	// Drawing from a must not change b's future stream.
	b2 := sim.NewRNG(123).Derive(2)
	for i := 0; i < 100; i++ {
		a.Uint64()
	}
	for i := 0; i < 100; i++ {
		if b.Uint64() != b2.Uint64() {
			t.Fatal("derived streams are not independent")
		}
	}
}

// Same seed, same sequence of mid-execution crash decisions and fractions.
func TestCtxCrashMidSameSeedIdentical(t *testing.T) {
	draw := func() (fracs []float64, crashes []bool) {
		p := NewPlan(Profile{Name: "t", CtxCrashMidProb: 0.4}, 99)
		for i := 0; i < 500; i++ {
			f, c := p.CtxCrashMid()
			fracs = append(fracs, f)
			crashes = append(crashes, c)
		}
		return
	}
	f1, c1 := draw()
	f2, c2 := draw()
	for i := range f1 {
		if f1[i] != f2[i] || c1[i] != c2[i] {
			t.Fatalf("draw %d differs across same-seed plans: (%v,%v) vs (%v,%v)", i, f1[i], c1[i], f2[i], c2[i])
		}
	}
}

// The mid-crash stream is independent of the pre-commit crash stream:
// enabling CtxCrashMidProb must not shift the CtxCrash sequence (and vice
// versa), so adding mid-crashes to a profile leaves existing draws intact.
func TestCtxCrashMidStreamIndependent(t *testing.T) {
	const seed = 7
	plain := NewPlan(Profile{Name: "a", CtxCrashProb: 0.5}, seed)
	mixed := NewPlan(Profile{Name: "b", CtxCrashProb: 0.5, CtxCrashMidProb: 0.5}, seed)
	for i := 0; i < 1000; i++ {
		// Interleave mid-crash draws on the mixed plan only.
		if i%3 == 0 {
			mixed.CtxCrashMid()
		}
		if plain.CtxCrash() != mixed.CtxCrash() {
			t.Fatalf("CtxCrash draw %d shifted when mid-crash draws were interleaved", i)
		}
	}
}

// A zero-probability profile never arms a mid-crash and counts nothing.
func TestCtxCrashMidDisabled(t *testing.T) {
	p := NewPlan(Profile{Name: "t"}, 1)
	for i := 0; i < 100; i++ {
		if _, crash := p.CtxCrashMid(); crash {
			t.Fatal("CtxCrashMid armed with probability 0")
		}
	}
	if p.Counters().CtxMidCrashes != 0 {
		t.Fatalf("CtxMidCrashes = %d, want 0", p.Counters().CtxMidCrashes)
	}
	var nilPlan *Plan
	if _, crash := nilPlan.CtxCrashMid(); crash {
		t.Fatal("nil plan armed a mid-crash")
	}
}

func TestCountersStringIncludesAllFields(t *testing.T) {
	c := Counters{
		Drops: 1, Corruptions: 2, Spikes: 3, CtxCrashes: 4,
		CtxMidCrashes: 5, SSDReadErrors: 6, PoolWindows: 7, ShardWindows: 8,
		LinkWindows: 9, SplitWindows: 10,
	}
	s := c.String()
	for _, want := range []string{
		"drops=1", "corrupt=2", "spikes=3", "ctx-crashes=4",
		"ctx-mid-crashes=5", "ssd-errs=6", "crash-windows=7", "shard-windows=8",
		"link-windows=9", "split-windows=10",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("Counters.String() = %q, missing %q", s, want)
		}
	}
}

// Params renders every active knob and the shipped shard profiles are listed.
func TestProfilesIncludeShardProfiles(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Profiles() {
		names[p.Name] = true
		if p.Params() == "no faults" {
			t.Errorf("shipped profile %q renders as injecting nothing", p.Name)
		}
	}
	for _, want := range []string{"shard-flap", "shard-chaos"} {
		if !names[want] {
			t.Errorf("profile %q not shipped", want)
		}
	}
	if (Profile{}).Params() != "no faults" {
		t.Errorf("zero profile Params() = %q, want \"no faults\"", Profile{}.Params())
	}
}
