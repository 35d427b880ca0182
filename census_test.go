package antipersist

import (
	"reflect"
	"testing"

	"repro/internal/durable"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
)

// TestOptionCensus counts the independently settable values of the
// system's four configuration structs, so the option census is a test
// and not a paragraph each change hand-counts. Every field doubles the
// configurations tests and benchmarks must cover: lowering a number here
// is always welcome; raising one needs two existing non-test callers
// that want different values for the new field — otherwise it is a
// constant, or something the code can work out for itself.
func TestOptionCensus(t *testing.T) {
	for _, c := range []struct {
		cfg    any
		fields int
	}{
		{server.Config{}, 10},
		{replica.Config{}, 9},
		{durable.Options{}, 10},
		{shard.Config{}, 2},
	} {
		if typ := reflect.TypeOf(c.cfg); typ.NumField() != c.fields {
			t.Errorf("%s has %d fields, the census says %d", typ, typ.NumField(), c.fields)
		}
	}
}
