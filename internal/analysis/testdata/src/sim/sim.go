// Package sim is a stand-in for the simulator's virtual clock and thread
// in virtualclock, spanbalance, and confine fixtures.
package sim

// Time is a virtual duration in nanoseconds.
type Time int64

// Microsecond is 1000 virtual nanoseconds.
const Microsecond Time = 1000

// Thread mimics the simulator's virtual thread: the only holder of
// virtual time, advanced by the hardware models.
type Thread struct {
	now  Time
	name string
}

// Advance charges d to the thread's virtual clock.
func (t *Thread) Advance(d Time) { t.now += d }

// Block parks the thread until another event unblocks it.
func (t *Thread) Block() {}

// Now returns the thread's virtual time (a getter: charges nothing).
func (t *Thread) Now() Time { return t.now }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Scheduler mimics the cooperative scheduler that owns all threads.
type Scheduler struct{ threads []*Thread }

// Go launches fn on a fresh simulator thread.
func (s *Scheduler) Go(name string, fn func(*Thread)) {
	t := &Thread{name: name}
	s.threads = append(s.threads, t)
	fn(t)
}

// Domain mimics a simulated machine's thread group in the parallel
// scheduler: its heap and horizon are mutated by the window worker that
// currently owns it, so it is confined state like Thread and Scheduler.
type Domain struct {
	name    string
	horizon Time
}

// Spawn launches fn on a fresh thread inside the domain.
func (d *Domain) Spawn(name string, fn func(*Thread)) *Thread {
	t := &Thread{name: name}
	fn(t)
	return t
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }
