package metrics

import "reflect"

// A layer counts each event once, in a field of its own stats struct
// (ddc.ProcStats, ddc.ShardStat, netmodel.Stat, storage.Stats,
// core.RuntimeStats, fault.Counters), and the field's tag is the name a
// snapshot exports it under. A struct with many instances (a ShardStat per
// shard, a Stat per traffic class) has two views: `ctr:"name"` is the
// machine-wide name, summed over the instances, `per:"suffix"` the name under
// the instance's prefix ("shard.2."). An untagged field is not exported.

// Ledger is the list of fields one stats struct exports under one tag key,
// resolved once per type and prefix so reading a snapshot formats nothing.
type Ledger struct {
	names  []string
	fields []int
}

// NewLedger lists the integer fields of stats (a struct value) tagged with
// key, naming each prefix + its tag.
func NewLedger(stats any, key, prefix string) Ledger {
	var l Ledger
	t := reflect.TypeOf(stats)
	for i := 0; i < t.NumField(); i++ {
		if name, ok := t.Field(i).Tag.Lookup(key); ok {
			l.names = append(l.names, prefix+name)
			l.fields = append(l.fields, i)
		}
	}
	return l
}

// Read adds the listed fields of stats (the struct or a pointer to it) to dst
// under their names; reading every instance of the struct through one ledger
// therefore yields the sum.
func (l Ledger) Read(dst map[string]int64, stats any) {
	v := reflect.Indirect(reflect.ValueOf(stats))
	for i, f := range l.fields {
		dst[l.names[i]] += v.Field(f).Int()
	}
}

// Sum adds a stats struct up over its instances, integer field by integer
// field, whatever fields it has.
func Sum[T any](instances []T) (total T) {
	d := reflect.ValueOf(&total).Elem()
	for i := range instances {
		s := reflect.ValueOf(&instances[i]).Elem()
		for f := 0; f < d.NumField(); f++ {
			if df := d.Field(f); df.CanInt() {
				df.SetInt(df.Int() + s.Field(f).Int())
			}
		}
	}
	return total
}
