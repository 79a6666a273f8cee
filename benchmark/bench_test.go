package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesCatalog holds BENCHMARK.json and the harness's own
// catalog (metrics.go, workloads.go) to each other, name by name.
func TestContractMatchesCatalog(t *testing.T) {
	c := readContract(t)
	full, err := specs("full")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(full) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(c.Workloads), len(full))
	}
	for i, w := range c.Workloads {
		if w.Name != full[i].name || w.Why != full[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, full[i].name, full[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.Name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the catalog %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
}

// TestTinySuite runs every workload at the tiny scale, untraced and
// traced, and checks the output's form: every catalog metric once, finite,
// no failed op, the workload's shape kept, spans nested.
func TestTinySuite(t *testing.T) {
	tiny, err := specs("tiny")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.name] = true
	}
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		for _, sp := range tiny {
			cfg := config{workload: sp.name, seed: 7, seconds: 1, trace: trace, rounds: 2, scale: "tiny", outDir: t.TempDir()}
			r, err := measure(cfg, sp)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %s", sp.name, trace, r.failed, r.attempted, r.firstFailure)
			}
			if r.shapeErr != "" {
				t.Errorf("%s trace=%v: shape broken: %s", sp.name, trace, r.shapeErr)
			}
			for _, d := range defs {
				if n := r.res.count[d.name]; n != 1 {
					t.Errorf("%s trace=%v: %s emitted %d times", sp.name, trace, d.name, n)
				}
				if v := r.res.vals[d.name].value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", sp.name, trace, d.name, v)
				}
			}
			for name := range r.res.count {
				if !known[name] {
					t.Errorf("%s trace=%v: emitted %q, which the catalog does not list", sp.name, trace, name)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if r.res.vals[d.name].value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, d.name, r.res.vals[d.name].value)
					}
				}
				continue
			}
			spans := r.tr.snapshot()
			if len(spans) == 0 {
				t.Errorf("%s: traced run recorded no span", sp.name)
			}
			self := selfTimes(spans)
			for i, s := range spans {
				if s.EndNS < s.StartNS || self[i] < 0 {
					t.Errorf("%s: span %d %s has duration %d, self time %d", sp.name, s.ID, s.Name, s.EndNS-s.StartNS, self[i])
				}
				if s.Parent < 0 {
					continue
				}
				p := spans[s.Parent]
				if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Op != p.Op {
					t.Errorf("%s: span %d %s [%d,%d] op %d is not inside its parent %s [%d,%d] op %d",
						sp.name, s.ID, s.Name, s.StartNS, s.EndNS, s.Op, p.Name, p.StartNS, p.EndNS, p.Op)
				}
			}
		}
	}
}
