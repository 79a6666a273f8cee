package sim

import (
	"sync"
	"testing"
	"time"
)

func TestClockPhases(t *testing.T) {
	c := NewClock()
	c.Compute(10 * time.Millisecond)
	c.IO(4 * time.Millisecond)
	c.BeginPhase("iterate")
	c.Compute(2 * time.Millisecond)
	c.IO(9 * time.Millisecond)

	phases := c.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	if phases[0].Name != "run" || phases[1].Name != "iterate" {
		t.Errorf("phase names = %q, %q", phases[0].Name, phases[1].Name)
	}
	// Total = max(10,4) + max(2,9) = 19ms.
	if got, want := c.Total(), 19*time.Millisecond; got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
	if got, want := c.TotalCompute(), 12*time.Millisecond; got != want {
		t.Errorf("TotalCompute = %v, want %v", got, want)
	}
	if got, want := c.TotalIO(), 13*time.Millisecond; got != want {
		t.Errorf("TotalIO = %v, want %v", got, want)
	}
}

func TestClockEmptyPhaseDropped(t *testing.T) {
	c := NewClock()
	c.BeginPhase("a")
	c.BeginPhase("b")
	c.Compute(time.Millisecond)
	if got := len(c.Phases()); got != 1 {
		t.Errorf("got %d phases, want 1 (empty phases dropped)", got)
	}
}

func TestClockComputeUnits(t *testing.T) {
	c := NewClock()
	c.ComputeUnits(1000, CostEdgeScan)
	if got, want := c.TotalCompute(), 1000*CostEdgeScan; got != want {
		t.Errorf("TotalCompute = %v, want %v", got, want)
	}
	c.ComputeUnits(-5, CostEdgeScan) // no-op
	if got, want := c.TotalCompute(), 1000*CostEdgeScan; got != want {
		t.Errorf("TotalCompute after negative charge = %v, want %v", got, want)
	}
}

func TestClockNegativeChargesIgnored(t *testing.T) {
	c := NewClock()
	c.Compute(-time.Second)
	c.IO(-time.Second)
	if c.Total() != 0 {
		t.Errorf("Total = %v, want 0", c.Total())
	}
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Compute(time.Microsecond)
				c.IO(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.TotalCompute(), 8000*time.Microsecond; got != want {
		t.Errorf("TotalCompute = %v, want %v", got, want)
	}
	if got, want := c.TotalIO(), 8000*time.Microsecond; got != want {
		t.Errorf("TotalIO = %v, want %v", got, want)
	}
}

func TestPhaseWall(t *testing.T) {
	p := Phase{Compute: 3 * time.Second, IO: 5 * time.Second}
	if p.Wall() != 5*time.Second {
		t.Errorf("Wall = %v, want 5s", p.Wall())
	}
	p = Phase{Compute: 7 * time.Second, IO: 5 * time.Second}
	if p.Wall() != 7*time.Second {
		t.Errorf("Wall = %v, want 7s", p.Wall())
	}
}

// TestNilClock: a nil *Clock is "no accounting" — every method does
// nothing, none panics, and every reading is zero.
func TestNilClock(t *testing.T) {
	var c *Clock
	c.BeginPhase("a")
	c.BeginIteration(3)
	c.Compute(time.Second)
	c.ComputeUnits(10, CostEdgeScan)
	c.ComputeBytes(4096)
	c.IO(time.Second)
	if p := c.Phases(); p != nil {
		t.Errorf("Phases = %v, want nil", p)
	}
	if c.Total() != 0 || c.TotalCompute() != 0 || c.TotalIO() != 0 {
		t.Errorf("Total %v, TotalCompute %v, TotalIO %v, want all 0", c.Total(), c.TotalCompute(), c.TotalIO())
	}
	if got, want := c.String(), "sim.Clock{total=0s compute=0s io=0s phases=0}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestBeginIteration: the iteration phase is BeginPhase of "iter<i>".
func TestBeginIteration(t *testing.T) {
	c := NewClock()
	c.BeginIteration(7)
	c.Compute(time.Millisecond)
	if p := c.Phases(); len(p) != 1 || p[0].Name != "iter7" {
		t.Errorf("phases = %v, want one named iter7", p)
	}
}
