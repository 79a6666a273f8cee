package obs

import "testing"

// The benchmarks quantify the issue's <5% disabled-overhead budget at the
// instrument level: the disabled variants are the exact operations the
// engine hot paths execute when no registry or tracer is attached.

func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("x_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("x_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
