package graphz_test

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/serve"
	"graphz/internal/storage"
)

// TestMetricCatalog holds docs/OBSERVABILITY.md's metric tables to the
// code in both directions: every series family a graphz-serve daemon
// exposes after one job — its own instruments plus every counter the core
// engine registers — has a table row, and every table row names a family
// that exists.
func TestMetricCatalog(t *testing.T) {
	dev := storage.NewDevice(storage.NullDevice, storage.Options{})
	if err := graph.WriteEdges(dev, "raw", gen.RMAT(7, 600, gen.NaturalRMAT, 5)); err != nil {
		t.Fatal(err)
	}
	g, err := dos.Convert(dos.ConvertConfig{Dev: dev}, "raw", "g")
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{MemoryBudget: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGraph("main", g); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(serve.SubmitRequest{Graph: "main", Algo: "CC", Budget: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = s.Wait(st.ID); err != nil || st.State != serve.StateDone {
		t.Fatalf("job: %+v, %v", st, err)
	}
	var prom strings.Builder
	if err := s.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	code := map[string]string{} // family → kind
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) (\S+)$`).FindAllStringSubmatch(prom.String(), -1) {
		code[m[1]] = m[2]
	}

	md, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]string{}
	row := regexp.MustCompile("(?m)^\\| `([a-z_]+)(?:\\{([a-z,]+)\\}([a-z_]+))?` \\| (counter|gauge|histogram) \\|")
	for _, m := range row.FindAllStringSubmatch(string(md), -1) {
		if m[2] == "" {
			doc[m[1]] = m[4]
			continue
		}
		for _, alt := range strings.Split(m[2], ",") { // name_{a,b}_suffix
			doc[m[1]+alt+m[3]] = m[4]
		}
	}

	var names []string
	for n := range code {
		names = append(names, n)
	}
	for n := range doc {
		if _, ok := code[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		switch c, d := code[n], doc[n]; {
		case d == "":
			t.Errorf("%s (%s) is registered but has no row in docs/OBSERVABILITY.md", n, c)
		case c == "":
			t.Errorf("%s is documented as a %s but nothing registers it", n, d)
		case c != d:
			t.Errorf("%s is a %s, documented as a %s", n, c, d)
		}
	}
	if len(code) < 30 {
		t.Errorf("only %d metric families found; the catalog check is vacuous", len(code))
	}
}
