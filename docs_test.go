package graphz_test

import (
	"io/fs"
	"os"
	"path/filepath"
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

// TestDesignNamesExistingFiles resolves every `file.go` DESIGN.md names in
// backticks — bare, or with as much of its directory as the text gives —
// to a file of this repository, so the design cannot go on describing a
// file a PR deleted or renamed. (History is told without the backticks.)
func TestDesignNamesExistingFiles(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, "/"+filepath.ToSlash(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile("`([A-Za-z0-9_./-]+\\.go)`").FindAllStringSubmatch(string(md), -1)
	if len(names) < 20 {
		t.Errorf("only %d file names found in DESIGN.md; the check is vacuous", len(names))
	}
next:
	for _, m := range names {
		for _, f := range files {
			if strings.HasSuffix(f, "/"+m[1]) {
				continue next
			}
		}
		t.Errorf("DESIGN.md names `%s`, which is no file of this repository", m[1])
	}
}
