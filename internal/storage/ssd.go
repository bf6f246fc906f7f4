// Package storage models the NVMe SSD that backs both the monolithic-Linux
// swap path (Figure 1a, 14) and the DDC storage pool (§2.1's recursive page
// fault to storage). It is a pure cost model with counters: page contents
// always live in the process's ground-truth address space, so the SSD only
// decides how long each page-in/page-out takes.
package storage

import (
	"teleport/internal/hw"
	"teleport/internal/metrics"
	"teleport/internal/sim"
	"teleport/internal/trace"
)

// Injector decides whether one device read fails its media/CRC check and
// must be retried. Implemented by *fault.Plan.
type Injector interface {
	SSDReadError() bool
}

// maxReadAttempts bounds device-level read retries; a flash controller that
// fails this many consecutive re-reads would return the block from parity,
// which the model treats as one more (successful) read.
const maxReadAttempts = 4

// SSD models one NVMe device. Consecutive page IDs are detected as a
// sequential stream and pay bandwidth only; anything else pays the random
// access latency. Methods charge virtual time to the calling thread.
type SSD struct {
	cfg      *hw.Config
	pageSize int
	inj      Injector
	obs      *trace.Tracer // nil-safe

	lastRead  uint64
	lastWrite uint64
	haveRead  bool
	haveWrite bool

	stats Stats
}

// New returns an SSD with the given hardware parameters and page size.
func New(cfg *hw.Config, pageSize int) *SSD {
	return &SSD{cfg: cfg, pageSize: pageSize}
}

// SetInjector attaches (or detaches, with nil) a read-error injector.
func (d *SSD) SetInjector(inj Injector) { d.inj = inj }

// SetObserver attaches the machine's tracer: each page-in/page-out is an
// ssd-read/ssd-write span whose duration is the device time.
func (d *SSD) SetObserver(tr *trace.Tracer) { d.obs = tr }

// ReadPage charges the cost of paging one page in from the device. An
// injected read error re-reads the page at full random-access cost (the
// stream is broken by the seek back).
func (d *SSD) ReadPage(t *sim.Thread, page uint64) {
	sp := d.obs.Begin(t, trace.KindSSDRead, page, 0)
	d.stats.Reads++
	seq := d.haveRead && page == d.lastRead+1
	d.lastRead, d.haveRead = page, true
	if seq {
		d.stats.SeqReads++
		t.AdvanceNs(float64(d.pageSize) / d.cfg.SSDSeqGBs)
	} else {
		t.AdvanceNs(d.cfg.SSDRandReadNs + float64(d.pageSize)/d.cfg.SSDSeqGBs)
	}
	if d.inj != nil {
		for attempt := 1; attempt < maxReadAttempts && d.inj.SSDReadError(); attempt++ {
			d.stats.ReadRetries++
			t.AdvanceNs(d.cfg.SSDRandReadNs + float64(d.pageSize)/d.cfg.SSDSeqGBs)
		}
	}
	d.obs.End(t, sp)
}

// WritePage charges the cost of paging one page out to the device.
func (d *SSD) WritePage(t *sim.Thread, page uint64) {
	sp := d.obs.Begin(t, trace.KindSSDWrite, page, 0)
	d.stats.Writes++
	seq := d.haveWrite && page == d.lastWrite+1
	d.lastWrite, d.haveWrite = page, true
	if seq {
		t.AdvanceNs(float64(d.pageSize) / d.cfg.SSDSeqGBs)
	} else {
		t.AdvanceNs(d.cfg.SSDRandWriteNs + float64(d.pageSize)/d.cfg.SSDSeqGBs)
	}
	d.obs.End(t, sp)
}

// Stats describes accumulated device activity.
type Stats struct {
	Reads    int64 `ctr:"ssd.read"`
	Writes   int64 `ctr:"ssd.write"`
	SeqReads int64
	// ReadRetries counts device-level re-reads after injected read errors.
	ReadRetries int64 `ctr:"ssd.read-retries"`
}

var ledger = metrics.NewLedger(Stats{}, "ctr", "")

// Stats returns the accumulated counters.
func (d *SSD) Stats() Stats { return d.stats }

// ReadCounters adds the device's counters to dst under their declared names.
func (d *SSD) ReadCounters(dst map[string]int64) { ledger.Read(dst, &d.stats) }
