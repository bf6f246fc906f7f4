package nilsafeobs

// Counter mimics a nil-safe observability handle.
type Counter struct{ n int64 }

// Good guards first: the canonical form.
func (c *Counter) Good(d int64) {
	if c == nil {
		return
	}
	c.n += d
}

// Combined guards still lead with the receiver test.
func (c *Counter) Combined(d int64) {
	if c == nil || d == 0 {
		return
	}
	c.n += d
}

// Inverted wraps the body in a non-nil test; also acceptable.
func (c *Counter) Inverted(d int64) {
	if c != nil {
		c.n += d
	}
}

// YodaGuard is the nil-first spelling.
func (c *Counter) YodaGuard() int64 {
	if nil == c {
		return 0
	}
	return c.n
}

func (c *Counter) Bad(d int64) { // want `\(\*Counter\)\.Bad must begin with a nil-receiver guard`
	c.n += d
}

func (c *Counter) BadLateGuard() { // want `must begin with a nil-receiver guard`
	d := int64(1)
	if c == nil {
		return
	}
	c.n += d
}

func (*Counter) Unnamed() {} // want `unnamed pointer receiver`

// Value receivers cannot be nil: exempt.
func (c Counter) Value() int64 { return c.n }

// Unexported methods are internal plumbing: exempt.
func (c *Counter) bump() { c.n++ }

// Tracer mimics trace.Tracer, whose End is a stopwatch even on a nil
// receiver: the guard returns the measured duration instead of zero.
type Tracer struct{ total int64 }

// End guards first and still measures on the nil path.
func (tr *Tracer) End(now, start int64) int64 {
	if tr == nil {
		return now - start
	}
	tr.total += now - start
	return now - start
}

// Measuring before the guard is the tempting spelling; the guard must lead.
func (tr *Tracer) BadEnd(now, start int64) int64 { // want `\(\*Tracer\)\.BadEnd must begin with a nil-receiver guard`
	d := now - start
	if tr == nil {
		return d
	}
	tr.total += d
	return d
}
