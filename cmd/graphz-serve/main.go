// Command graphz-serve is the resident analytics daemon: it loads one or
// more graphs into degree-ordered storage once, keeps the decoded
// adjacency shared in memory, and serves concurrent algorithm jobs over
// an HTTP/JSON API with budget-driven admission control (docs/SERVING.md).
//
// Usage:
//
//	graphz-serve -addr :8090 -gen social=rmat,scale=12,edges=40000,seed=7
//	graphz-serve -in web=crawl.bin -codec groupvarint -budget 268435456
//	graphz-serve -graph road=./road-dos -addr 127.0.0.1:0
//
// Then:
//
//	curl -X POST localhost:8090/jobs -d '{"graph":"social","algo":"bfs"}'
//	curl localhost:8090/jobs/job-000001
//	curl localhost:8090/jobs/job-000001/result?top=5
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/obs"
	"graphz/internal/serve"
	"graphz/internal/storage"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, " ") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var genSpecs, inSpecs, graphSpecs multiFlag
	var (
		addr   = flag.String("addr", "127.0.0.1:8090", "listen address (use :0 for a free port)")
		budget = flag.Int64("budget", 256<<20, "server-wide memory budget in bytes (resident graphs + running job budgets)")
		jobB   = flag.Int64("job-budget", 0, "default per-job engine budget when a submission omits one (default budget/8)")
		queue  = flag.Int("queue", 16, "admission queue limit")
		device = flag.String("device", "ssd", "simulated device for the resident graphs: hdd or ssd")
		codec  = flag.String("codec", "groupvarint", "adjacency block codec for converted graphs: "+strings.Join(storage.CodecNames(), ", ")+", or v1 for fixed entries")
		drain  = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain window on SIGINT/SIGTERM")
	)
	flag.Var(&genSpecs, "gen", "generated graph, repeatable: name=kind[,scale=N][,vertices=N][,edges=N][,s=F][,seed=N] with kind rmat, zipf, er, or grid")
	flag.Var(&inSpecs, "in", "raw edge-list graph, repeatable: name=path")
	flag.Var(&graphSpecs, "graph", "pre-converted graph from graphz-convert, repeatable: name=prefix")
	flag.Parse()

	if len(genSpecs)+len(inSpecs)+len(graphSpecs) == 0 {
		fmt.Fprintln(os.Stderr, "graphz-serve: at least one -gen, -in, or -graph is required")
		flag.Usage()
		os.Exit(2)
	}
	kind, err := storage.ParseKind(*device)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphz-serve:", err)
		os.Exit(2)
	}

	s, err := serve.New(serve.Config{MemoryBudget: *budget, DefaultJobBudget: *jobB, QueueLimit: *queue})
	if err != nil {
		fatal(err)
	}
	dev := storage.NewDevice(kind, storage.Options{})
	for _, spec := range graphSpecs {
		name, prefix, err := splitSpec(spec)
		if err != nil {
			fatal(err)
		}
		g, err := dos.Import(dev, prefix, name+".dos")
		if err != nil {
			fatal(fmt.Errorf("-graph %s: %w", spec, err))
		}
		register(s, name, g)
	}
	for _, spec := range inSpecs {
		name, path, err := splitSpec(spec)
		if err != nil {
			fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if err := storage.WriteAll(dev, name+".raw", raw); err != nil {
			fatal(err)
		}
		register(s, name, convert(dev, name, *codec, *budget))
	}
	for _, spec := range genSpecs {
		name, edges, err := generate(spec)
		if err != nil {
			fatal(fmt.Errorf("-gen %s: %w", spec, err))
		}
		if err := graph.WriteEdges(dev, name+".raw", edges); err != nil {
			fatal(err)
		}
		register(s, name, convert(dev, name, *codec, *budget))
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(l) //nolint:errcheck // Serve always returns on Shutdown/Close

	for _, gi := range s.Graphs() {
		fmt.Printf("graphz-serve: graph %q resident: %d vertices, %d edges, %d B\n",
			gi.Name, gi.Vertices, gi.Edges, gi.ResidentBytes)
	}
	fmt.Printf("graphz-serve: serving on http://%s\n", l.Addr())

	ctx, stop := obs.SignalContext(context.Background())
	defer stop()
	<-ctx.Done()
	fmt.Println("graphz-serve: signal received, draining")
	// Stop taking requests first (bounded drain), then cancel whatever
	// is still running so engine goroutines exit promptly.
	if err := obs.DrainShutdown(srv, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "graphz-serve: drain:", err)
	}
	for _, j := range s.Jobs() {
		if !j.State.Terminal() {
			s.Cancel(j.ID) //nolint:errcheck // job may finish concurrently
		}
	}
	fmt.Println("graphz-serve: bye")
}

// register adds a loaded graph to the server or dies.
func register(s *serve.Server, name string, g *dos.Graph) {
	if err := s.RegisterGraph(name, g); err != nil {
		fatal(err)
	}
}

// convert runs the degree-ordered conversion of name.raw with the chosen
// block codec ("v1" keeps fixed 4-byte entries).
func convert(dev *storage.Device, name, codecName string, budget int64) *dos.Graph {
	cfg := dos.ConvertConfig{Dev: dev, MemoryBudget: budget / 4, RemoveInput: true}
	if codecName != "" && codecName != "v1" {
		c, err := storage.CodecByName(codecName)
		if err != nil {
			fatal(err)
		}
		cfg.Codec = c
	}
	g, err := dos.Convert(cfg, name+".raw", name+".dos")
	if err != nil {
		fatal(fmt.Errorf("converting %s: %w", name, err))
	}
	return g
}

// splitSpec parses "name=value".
func splitSpec(spec string) (name, value string, err error) {
	name, value, ok := strings.Cut(spec, "=")
	if !ok || name == "" || value == "" {
		return "", "", fmt.Errorf("graphz-serve: want name=value, got %q", spec)
	}
	return name, value, nil
}

// generate parses a -gen spec ("name=kind,k=v,...") and produces edges.
func generate(spec string) (string, []graph.Edge, error) {
	parts := strings.Split(spec, ",")
	name, kind, err := splitSpec(parts[0])
	if err != nil {
		return "", nil, err
	}
	params := map[string]uint64{"scale": 10, "vertices": 1024, "edges": 8192, "seed": 1}
	skew := 1.2
	for _, p := range parts[1:] {
		k, v, err := splitSpec(p)
		if err != nil {
			return "", nil, err
		}
		if k == "s" {
			skew, err = strconv.ParseFloat(v, 64)
			if err != nil {
				return "", nil, fmt.Errorf("bad %s: %w", p, err)
			}
			continue
		}
		if _, known := params[k]; !known {
			return "", nil, fmt.Errorf("unknown generator parameter %q", k)
		}
		params[k], err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("bad %s: %w", p, err)
		}
	}
	edges, err := gen.Generate(gen.Spec{Kind: kind, Scale: int(params["scale"]), Vertices: int(params["vertices"]),
		Edges: int(params["edges"]), Skew: skew, Rows: int(params["vertices"]), Cols: int(params["vertices"]), Seed: params["seed"]})
	return name, edges, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphz-serve:", err)
	os.Exit(1)
}
