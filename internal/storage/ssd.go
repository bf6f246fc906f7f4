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
	times    *metrics.TimeSet // machine-wide attribution (nil-safe)
	tr       *trace.Tracer    // span layer (nil = spans off)
	reg      *metrics.Registry

	lastRead  uint64
	lastWrite uint64
	haveRead  bool
	haveWrite bool

	reads       int64
	writes      int64
	seqReads    int64
	bytesRead   int64
	bytesWrite  int64
	readRetries int64
}

// New returns an SSD with the given hardware parameters and page size.
func New(cfg *hw.Config, pageSize int) *SSD {
	return &SSD{cfg: cfg, pageSize: pageSize}
}

// SetInjector attaches (or detaches, with nil) a read-error injector.
func (d *SSD) SetInjector(inj Injector) { d.inj = inj }

// SetTracer attaches a span tracer: each page-in/page-out becomes an
// ssd-read/ssd-write span nesting under the fault that triggered it.
func (d *SSD) SetTracer(tr *trace.Tracer) { d.tr = tr }

// SetTimes attaches the machine-wide attribution accumulator.
func (d *SSD) SetTimes(ts *metrics.TimeSet) { d.times = ts }

// SetMetrics attaches (or detaches, with nil) a metrics registry.
func (d *SSD) SetMetrics(reg *metrics.Registry) { d.reg = reg }

// ReadPage charges the cost of paging one page in from the device. An
// injected read error re-reads the page at full random-access cost (the
// stream is broken by the seek back).
func (d *SSD) ReadPage(t *sim.Thread, page uint64) {
	start := t.Now()
	sp := d.tr.Begin(t, trace.KindSSDRead, page, 0)
	d.reads++
	d.bytesRead += int64(d.pageSize)
	seq := d.haveRead && page == d.lastRead+1
	d.lastRead, d.haveRead = page, true
	if seq {
		d.seqReads++
		t.AdvanceNs(float64(d.pageSize) / d.cfg.SSDSeqGBs)
	} else {
		t.AdvanceNs(d.cfg.SSDRandReadNs + float64(d.pageSize)/d.cfg.SSDSeqGBs)
	}
	if d.inj != nil {
		for attempt := 1; attempt < maxReadAttempts && d.inj.SSDReadError(); attempt++ {
			d.readRetries++
			t.AdvanceNs(d.cfg.SSDRandReadNs + float64(d.pageSize)/d.cfg.SSDSeqGBs)
		}
	}
	d.tr.End(t, sp)
	d.times.Add(metrics.CompSSDRead, t.Now()-start)
	d.reg.Counter("ssd.read").Inc()
	d.reg.Histogram("ssd.read.ns").Observe(t.Now() - start)
}

// WritePage charges the cost of paging one page out to the device.
func (d *SSD) WritePage(t *sim.Thread, page uint64) {
	start := t.Now()
	sp := d.tr.Begin(t, trace.KindSSDWrite, page, 0)
	d.writes++
	d.bytesWrite += int64(d.pageSize)
	seq := d.haveWrite && page == d.lastWrite+1
	d.lastWrite, d.haveWrite = page, true
	if seq {
		t.AdvanceNs(float64(d.pageSize) / d.cfg.SSDSeqGBs)
	} else {
		t.AdvanceNs(d.cfg.SSDRandWriteNs + float64(d.pageSize)/d.cfg.SSDSeqGBs)
	}
	d.tr.End(t, sp)
	d.times.Add(metrics.CompSSDWrite, t.Now()-start)
	d.reg.Counter("ssd.write").Inc()
	d.reg.Histogram("ssd.write.ns").Observe(t.Now() - start)
}

// Stats describes accumulated device activity.
type Stats struct {
	Reads, Writes         int64
	SeqReads              int64
	BytesRead, BytesWrite int64
	// ReadRetries counts device-level re-reads after injected read errors.
	ReadRetries int64
}

// Stats returns the accumulated counters.
func (d *SSD) Stats() Stats {
	return Stats{
		Reads: d.reads, Writes: d.writes, SeqReads: d.seqReads,
		BytesRead: d.bytesRead, BytesWrite: d.bytesWrite,
		ReadRetries: d.readRetries,
	}
}
