package main

import "runtime"

// usageDelta is what one op cost the process: CPU time (getrusage),
// heap allocation and GC pauses (runtime.MemStats).
type usageDelta struct {
	cpuS, allocMB, allocs, gcPauseMS float64
}

func (u usageDelta) sub(o usageDelta) usageDelta {
	return usageDelta{u.cpuS - o.cpuS, u.allocMB - o.allocMB, u.allocs - o.allocs, u.gcPauseMS - o.gcPauseMS}
}

// readUsage snapshots the process counters; ReadMemStats stops the
// world, so the untraced run (on false) skips it.
func readUsage(on bool) usageDelta {
	if !on {
		return usageDelta{}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usageDelta{
		cpuS:      cpuSeconds(),
		allocMB:   float64(m.TotalAlloc) / 1e6,
		allocs:    float64(m.Mallocs),
		gcPauseMS: float64(m.PauseTotalNs) / 1e6,
	}
}
