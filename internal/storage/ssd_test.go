package storage

import (
	"testing"

	"teleport/internal/hw"
	"teleport/internal/sim"
)

func newTestSSD() (*SSD, *sim.Thread) {
	cfg := hw.Testbed()
	return New(&cfg, 4096), sim.NewThread("ssd-test")
}

func TestRandomReadPaysLatency(t *testing.T) {
	d, th := newTestSSD()
	d.ReadPage(th, 100)
	cfg := hw.Testbed()
	want := sim.FromNs(cfg.SSDRandReadNs + 4096/cfg.SSDSeqGBs)
	if th.Now() != want {
		t.Fatalf("random read cost %v, want %v", th.Now(), want)
	}
}

func TestSequentialReadsPayBandwidthOnly(t *testing.T) {
	d, th := newTestSSD()
	d.ReadPage(th, 100)
	first := th.Now()
	d.ReadPage(th, 101)
	seqCost := th.Now() - first
	cfg := hw.Testbed()
	want := sim.FromNs(4096 / cfg.SSDSeqGBs)
	if seqCost != want {
		t.Fatalf("sequential read cost %v, want %v", seqCost, want)
	}
	if s := d.Stats(); s.SeqReads != 1 || s.Reads != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNonConsecutiveBreaksStream(t *testing.T) {
	d, th := newTestSSD()
	d.ReadPage(th, 100)
	d.ReadPage(th, 101)
	before := th.Now()
	d.ReadPage(th, 50) // jump back: random again
	cfg := hw.Testbed()
	if got := th.Now() - before; got < sim.FromNs(cfg.SSDRandReadNs) {
		t.Fatalf("jump read cost %v, want at least the random latency", got)
	}
}

func TestWriteCosts(t *testing.T) {
	d, th := newTestSSD()
	cfg := hw.Testbed()
	d.WritePage(th, 10)
	if want := sim.FromNs(cfg.SSDRandWriteNs + 4096/cfg.SSDSeqGBs); th.Now() != want {
		t.Fatalf("random write cost %v, want %v", th.Now(), want)
	}
	before := th.Now()
	d.WritePage(th, 11)
	if got, want := th.Now()-before, sim.FromNs(4096/cfg.SSDSeqGBs); got != want {
		t.Fatalf("sequential write cost %v, want %v", got, want)
	}
	s := d.Stats()
	if s.Writes != 2 || s.BytesWrite != 8192 {
		t.Fatalf("stats = %+v", s)
	}
	// Reads and writes keep independent streams.
	d.ReadPage(th, 12)
	if d.Stats().SeqReads != 0 {
		t.Fatal("read after write must not count as sequential read")
	}
}

// scriptedInjector fails the first n read checks.
type scriptedInjector struct{ failures int }

func (s *scriptedInjector) SSDReadError() bool {
	if s.failures > 0 {
		s.failures--
		return true
	}
	return false
}

func TestInjectedReadErrorRetries(t *testing.T) {
	d, th := newTestSSD()
	d.SetInjector(&scriptedInjector{failures: 1})
	d.ReadPage(th, 100)
	cfg := hw.Testbed()
	once := cfg.SSDRandReadNs + 4096/cfg.SSDSeqGBs
	want := 2 * sim.FromNs(once) // original read + one re-read
	if th.Now() != want {
		t.Fatalf("faulty read cost %v, want %v", th.Now(), want)
	}
	s := d.Stats()
	if s.ReadRetries != 1 || s.Reads != 1 {
		t.Fatalf("stats = %+v, want 1 read / 1 retry", s)
	}
}

func TestReadRetriesAreCapped(t *testing.T) {
	d, th := newTestSSD()
	d.SetInjector(&scriptedInjector{failures: 100})
	d.ReadPage(th, 7)
	if got := d.Stats().ReadRetries; got != maxReadAttempts-1 {
		t.Fatalf("retries = %d, want cap %d", got, maxReadAttempts-1)
	}
	if th.Now() == 0 {
		t.Fatal("capped read charged nothing")
	}
}

func TestSSDSlowerThanFabricPage(t *testing.T) {
	// The premise of Figure 1a: paging from the remote memory pool must be
	// far cheaper than paging from the SSD.
	cfg := hw.Testbed()
	ssdNs := cfg.SSDRandReadNs + 4096/cfg.SSDSeqGBs
	netNs := cfg.RoundTripNs(64, 4096)
	if ssdNs < 10*netNs {
		t.Fatalf("SSD (%v ns) should be ≳10× remote memory (%v ns)", ssdNs, netNs)
	}
}
