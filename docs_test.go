package graphz_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/serve"
	"graphz/internal/storage"
)

// TestMetricCatalog holds docs/OBSERVABILITY.md's metric tables to the
// code in both directions: every series family a graphz-serve daemon
// exposes after one job — its own instruments plus every counter the core
// engine registers — has a table row, and every table row names a family
// that exists. Every row of a table with a consumer column names a
// consumer that resolves, and the run-report tables have a row for every
// iteration-row field, memory class and heatmap dimension.
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
	row := regexp.MustCompile("(?m)^\\| `([a-z_{},]+)` \\| (counter|gauge) \\|")
	for _, m := range row.FindAllStringSubmatch(string(md), -1) {
		for _, n := range expandBraces(m[1]) {
			doc[n] = m[2]
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
	if len(code) < 26 {
		t.Errorf("only %d metric families found; the catalog check is vacuous", len(code))
	}

	serving, err := os.ReadFile("docs/SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	// A row names a struct field by its JSON name; a test reads it by its
	// Go name.
	goName := map[string]string{}
	for _, v := range []any{obs.IterStats{}, obs.MemSample{}, obs.BlockHeat{}} {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name == "" {
				name = typ.Field(i).Name
			}
			if name != "file" && name != "block" { // a heat cell's key, not a dimension
				goName[name] = typ.Field(i).Name
			}
		}
	}
	bench, tests := benchmarkMetrics(t), testFuncs(t)
	listed := map[string]bool{} // what the consumer tables' rows name
	rows := 0
	for _, r := range consumerRows(string(md)) {
		rows++
		for _, m := range backticked.FindAllStringSubmatch(r.name, -1) {
			listed[m[1]] = true
		}
		if err := resolveConsumer(r, bench, tests, goName, string(serving)); err != "" {
			t.Errorf("docs/OBSERVABILITY.md row %s: consumer %q %s", r.name, r.consumer, err)
		}
	}
	if rows < len(code) {
		t.Errorf("only %d rows name a consumer; the consumer check is vacuous", rows)
	}
	for name := range goName {
		if !listed[name] {
			t.Errorf("%s has no row (and so no consumer) in docs/OBSERVABILITY.md's run-report tables", name)
		}
	}
}

var backticked = regexp.MustCompile("`([^`]+)`")

// expandBraces expands one `a{x,y}b` group: a name row or a benchmark
// consumer may cover a family.
func expandBraces(s string) []string {
	m := regexp.MustCompile(`^(.*)\{([a-z,]+)\}(.*)$`).FindStringSubmatch(s)
	if m == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(m[2], ",") {
		out = append(out, m[1]+alt+m[3])
	}
	return out
}

// consumerRow is one row of a markdown table that has a consumer column:
// its first cell and its consumer cell.
type consumerRow struct{ name, consumer string }

func consumerRows(md string) []consumerRow {
	var out []consumerRow
	col := -1
	for _, line := range strings.Split(md, "\n") {
		switch {
		case !strings.HasPrefix(line, "|"):
			col = -1
			continue
		case strings.HasPrefix(line, "|-"): // the header's separator
			continue
		}
		cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |"), " | ")
		if col == -1 { // a header
			col = -2 // a table without a consumer column
			for i, c := range cells {
				if c == "consumer" {
					col = i
				}
			}
		} else if col >= 0 {
			out = append(out, consumerRow{cells[0], cells[col]})
		}
	}
	return out
}

// resolveConsumer returns why r's consumer is not one of the four kinds
// docs/OBSERVABILITY.md admits, or "" when it is.
func resolveConsumer(r consumerRow, bench map[string]bool, tests, goName map[string]string, serving string) string {
	kind, arg, _ := strings.Cut(r.consumer, " ")
	names := backticked.FindAllStringSubmatch(arg, -1)
	switch strings.TrimSuffix(kind, ":") {
	case "benchmark":
		for _, m := range names {
			for _, n := range expandBraces(m[1]) {
				if !bench[n] {
					return "names " + n + ", which BENCHMARK.json does not list"
				}
			}
		}
	case "test":
		for _, m := range names {
			src, ok := tests[m[1]]
			if !ok {
				return "names " + m[1] + ", which is no test function of the repository"
			}
			if !readsInstrument(src, r.name, goName) {
				return "names " + m[1] + ", which never reads " + r.name
			}
		}
	case "report":
		if arg == "show" || arg == "diff" {
			return ""
		}
		return "is neither graphz-report show nor diff"
	case "serving":
		for _, m := range backticked.FindAllStringSubmatch(r.name, -1) {
			if !strings.Contains(serving, m[1]) {
				return "is an operator question, yet docs/SERVING.md never names " + m[1]
			}
		}
		if strings.HasSuffix(arg, "?") {
			return ""
		}
		return "asks no question"
	default:
		return "is none of benchmark, report, serving or test"
	}
	if len(names) == 0 {
		return "names nothing"
	}
	return ""
}

// readsInstrument reports whether a test's source names the instrument of
// a row: a metric by its name, a struct field by its JSON or Go name.
func readsInstrument(src, row string, goName map[string]string) bool {
	for _, m := range backticked.FindAllStringSubmatch(row, -1) {
		for _, n := range expandBraces(m[1]) {
			if strings.Contains(src, `"`+n+`"`) || goName[n] != "" && strings.Contains(src, "."+goName[n]) {
				return true
			}
		}
	}
	return false
}

// benchmarkMetrics is the set of metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		out[m.Name] = true
	}
	return out
}

// testFuncs maps each test and fuzz function the repository declares to
// its source, from its signature to its closing brace.
func testFuncs(t *testing.T) map[string]string {
	out := map[string]string{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	for _, f := range repoFiles(t, "_test.go") {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		for _, m := range decl.FindAllStringSubmatchIndex(src, -1) {
			body := src[m[0]:]
			if end := strings.Index(body, "\n}\n"); end >= 0 {
				body = body[:end]
			}
			out[src[m[2]:m[3]]] = body
		}
	}
	return out
}

// repoFiles lists the repository's files ending in suffix, as paths
// relative to its root. It skips git's directory and the benchmark
// harness's build tree, which may hold a checkout of another commit.
func repoFiles(t *testing.T, suffix string) []string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && (path == ".git" || path == ".bench_build") {
			return filepath.SkipDir
		}
		if err == nil && !d.IsDir() && strings.HasSuffix(path, suffix) {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDesignNamesExistingFiles resolves every `file.go` DESIGN.md names in
// backticks — bare, or with as much of its directory as the text gives —
// to a file of this repository, and every backticked Go identifier or
// selector (`applyOnSpot`, `core.ApplyAll`, `Context.SendEach`,
// `plan()`) to a declaration, so the design cannot go on describing a file
// or a name a change deleted or renamed. (History is told without the
// backticks.)
func TestDesignNamesExistingFiles(t *testing.T) {
	var files []string
	for _, f := range repoFiles(t, ".go") {
		files = append(files, "/"+filepath.ToSlash(f))
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

	decls, literals := goNames(t)
	checked := 0
	prose := regexp.MustCompile("(?s)```.*?```").ReplaceAllString(string(md), "") // code blocks are Go, not names
	for _, m := range backticked.FindAllStringSubmatch(prose, -1) {
		name := strings.TrimSuffix(m[1], "()")
		parts := strings.Split(name, ".")
		if !goIdent.MatchString(name) || notGoName(name, parts) {
			continue
		}
		checked++
		if len(parts) == 1 && literals[name] {
			continue // a value the code spells: a codec, a subtest, a stage
		}
		for _, p := range parts {
			if !decls[p] {
				t.Errorf("DESIGN.md names `%s`, yet this repository declares no %s", m[1], p)
				break
			}
		}
	}
	if checked < 300 {
		t.Errorf("only %d identifiers found in DESIGN.md; the check is vacuous", checked)
	}
}

// goIdent is a Go identifier or a selector of them.
var goIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$`)

// notGoName reports whether an identifier-shaped name is something else:
// a file (`go.mod`, `reference_test.go`) or a metric, counter or report
// field, which are snake_case (`io_read_b_per_edge`, `core.msgs_sent`).
// Flags and shell commands never take the identifier's shape.
func notGoName(name string, parts []string) bool {
	switch parts[len(parts)-1] {
	case "go", "md", "json", "sh", "mod":
		return len(parts) > 1
	}
	return strings.Contains(name, "_") && strings.ToLower(name) == name
}

// goNames parses every .go file of the repository and returns the names it
// declares — package names, funcs and methods, types, struct fields,
// interface methods, package-level consts and vars, and Go's predeclared
// names — and, apart, the values its string literals spell.
func goNames(t *testing.T) (decls, literals map[string]bool) {
	decls, literals = map[string]bool{}, map[string]bool{}
	for _, n := range types.Universe.Names() {
		decls[n] = true
	}
	fset := token.NewFileSet()
	for _, f := range repoFiles(t, ".go") {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		decls[file.Name.Name] = true
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[d.Name.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls[s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decls[n.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var fields *ast.FieldList
			switch n := n.(type) {
			case *ast.StructType:
				fields = n.Fields
			case *ast.InterfaceType:
				fields = n.Methods
			case *ast.BasicLit:
				if v, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
					literals[v] = true
				}
			}
			if fields != nil {
				for _, f := range fields.List {
					for _, n := range f.Names {
						decls[n.Name] = true
					}
				}
			}
			return true
		})
	}
	return decls, literals
}

// TestDesignSectionCitations holds every "DESIGN.md §N" or "DESIGN §N" that a
// .go, .md or .sh file of the repository cites to an existing "## N."
// heading of DESIGN.md, so a renumbered or deleted section cannot leave its
// citations pointing elsewhere.
func TestDesignSectionCitations(t *testing.T) {
	md, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(string(md), -1) {
		sections[m[1]] = true
	}
	cite := regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+)`)
	cited := 0
	for _, suffix := range []string{".go", ".md", ".sh"} {
		for _, f := range repoFiles(t, suffix) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range cite.FindAllStringSubmatch(string(data), -1) {
				cited++
				if !sections[m[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", f, m[1], m[1])
				}
			}
		}
	}
	if cited < 100 {
		t.Errorf("only %d citations of DESIGN.md sections found; the check is vacuous", cited)
	}
}

// coreTestLines is the most lines internal/core's _test.go files may total:
// the count when the budget was last set. ROADMAP item 7 takes it to 4,000.
// A test that a draw comes to hold is deleted to pay for the next one, never
// packed into fewer lines (every error check there is already one
// must(t, err)).
const coreTestLines = 4158

// TestCoreTestLineBudget holds internal/core's tests to coreTestLines.
func TestCoreTestLineBudget(t *testing.T) {
	files, err := filepath.Glob("internal/core/*_test.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no internal/core tests found (%v)", err)
	}
	total := 0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		total += strings.Count(string(b), "\n")
	}
	if total > coreTestLines {
		t.Errorf("internal/core's tests total %d lines, over the budget of %d", total, coreTestLines)
	}
}

// designLines is the most lines DESIGN.md may have: its count when the
// budget was last set, under ROADMAP item 7's 800. Like coreTestLines it
// only falls: a section that grows pays with history moved to
// docs/MEASURED.md, never with packed lines.
const designLines = 796

// TestDesignLineBudget holds DESIGN.md to designLines.
func TestDesignLineBudget(t *testing.T) {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n > designLines {
		t.Errorf("DESIGN.md has %d lines, over the budget of %d", n, designLines)
	}
}
