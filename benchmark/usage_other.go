//go:build !unix

package main

// cpuSeconds is unavailable without getrusage; core.cpu_s_per_run reads 0.
func cpuSeconds() float64 { return 0 }
