package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xrank/internal/obs"
)

// span is one timed call the benchmark made, or one stage the engine
// reported for it. Spans of one operation share op; parent is 0 for an
// operation's root.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in by summarize
}

// tracer keeps the traced pass's spans in memory until the run ends, and
// the CPU and allocation profiles taken around its main phase.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu    sync.Mutex
	spans []span

	cpu      bytes.Buffer
	memStart map[[32]uintptr]int64
	cpuShare map[string]float64
	memShare map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID returns a fresh operation or span ID.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a span under a fresh ID and returns it.
func (t *tracer) add(op, parent int64, name string, start, end time.Time) int64 {
	id := t.newID()
	t.record(id, op, parent, name, start, end)
	return id
}

// record keeps one span. A span's layer is its name up to the first dot.
func (t *tracer) record(id, op, parent int64, name string, start, end time.Time) {
	layer, _, _ := strings.Cut(name, ".")
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Layer: layer,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// engineStages records the stages of QueryStats.Trace as children of the
// call span parent, each nested under the innermost earlier stage whose
// interval contains it (execute contains the algorithm's open and merge
// stages). Engine stages (tokenize, execute, materialize) belong to the
// xrank layer; everything else the engine reports is an algorithm or
// fan-out stage of the query layer.
func (t *tracer) engineStages(op, parent int64, stages []obs.Span) {
	type open struct {
		id       int64
		from, to time.Time
	}
	var stack []open
	for _, s := range stages {
		from, to := s.Start, s.Start.Add(s.Dur)
		for len(stack) > 0 && (from.Before(stack[len(stack)-1].from) || to.After(stack[len(stack)-1].to)) {
			stack = stack[:len(stack)-1]
		}
		p := parent
		if len(stack) > 0 {
			p = stack[len(stack)-1].id
		}
		layer := "query"
		switch s.Name {
		case "tokenize", "execute", "materialize":
			layer = "xrank"
		}
		id := t.add(op, p, layer+"."+s.Name, from, to)
		stack = append(stack, open{id, from, to})
	}
}

// startProfiles begins CPU profiling and snapshots the allocation
// profile; stopProfiles folds both into per-module shares.
func (t *tracer) startProfiles() error {
	runtime.GC()
	t.memStart = memProfile()
	return pprof.StartCPUProfile(&t.cpu)
}

func (t *tracer) stopProfiles() error {
	pprof.StopCPUProfile()
	runtime.GC()
	t.memShare = foldMem(t.memStart, memProfile())
	var err error
	t.cpuShare, err = foldCPU(t.cpu.Bytes())
	return err
}

// summarize computes self times and writes the span-derived per-layer
// metrics into m.
func (t *tracer) summarize(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var iv [][2]int64
		for _, c := range children[s.ID] {
			iv = append(iv, [2]int64{t.spans[c].Start, t.spans[c].End})
		}
		s.Self = (s.End - s.Start) - covered(iv, s.Start, s.End)
	}

	// perOp sums the self time of the spans name selects per operation
	// and returns the per-operation totals in ms.
	perOp := func(sel func(s *span) bool) []float64 {
		tot := map[int64]int64{}
		for i := range t.spans {
			if s := &t.spans[i]; sel(s) {
				tot[s.Op] += s.Self
			}
		}
		out := make([]float64, 0, len(tot))
		for _, v := range tot {
			out = append(out, float64(v)/1e6)
		}
		return out
	}
	named := func(name string) func(*span) bool { return func(s *span) bool { return s.Name == name } }
	m["xrank.materialize_ms_p50"] = percentile(perOp(named("xrank.materialize")), 0.5)
	m["query.open_ms_p50"] = percentile(perOp(func(s *span) bool {
		return s.Layer == "query" && strings.HasSuffix(s.Name, ".open")
	}), 0.5)
	m["query.dil_merge_ms_p50"] = percentile(perOp(named("query.dil.merge")), 0.5)
	m["query.rdil_rounds_ms_p50"] = percentile(perOp(named("query.rdil.rounds")), 0.5)
	m["query.hdil_rounds_ms_p50"] = percentile(perOp(named("query.hdil.rounds")), 0.5)
	m["httpapi.queue_ms_mean"] = mean(perOp(named("httpapi.queue")))
	m["httpapi.search_ms_p50"] = percentile(perOp(named("httpapi.search")), 0.5)
	m["httpapi.overhead_ms_p50"] = percentile(perOp(named("httpapi.GET /api/search")), 0.5)
	m["suggest.search_ms_p50"] = percentile(perOp(named("suggest.topk")), 0.5)

	for _, mod := range profiledModules {
		m[mod+".cpu_share"] = t.cpuShare[mod]
		m[mod+".alloc_share"] = t.memShare[mod]
	}
}

// covered returns how much of [from, to) the intervals cover.
func covered(iv [][2]int64, from, to int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, cur int64 = 0, from
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], to)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// printLayerSelfTimes prints each layer's total self time.
func (t *tracer) printLayerSelfTimes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	tot := map[string]int64{}
	ops := map[int64]bool{}
	for _, s := range t.spans {
		tot[s.Layer] += s.Self
		ops[s.Op] = true
	}
	var layers []string
	for l := range tot {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("span self time by layer over %d operations:\n", len(ops))
	for _, l := range layers {
		fmt.Printf("  %-10s %12.3f ms\n", l, float64(tot[l])/1e6)
	}
}

// writeSpans writes one JSON object per span.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// moduleOf maps a function name to the layer it belongs to, or "" for
// code outside the repository (the standard library and the runtime).
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "client"
	case strings.HasPrefix(fn, "xrank."):
		return "xrank"
	case strings.HasPrefix(fn, "xrank/internal/"):
		rest := fn[len("xrank/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	return ""
}

// stackModule charges a sample to the innermost repository frame of its
// stack (leaf first), so standard-library work such as JSON encoding or
// map growth counts against the layer that asked for it. Stacks with no
// repository frame are the HTTP server's connection goroutines
// (httpapi), the HTTP client's transport goroutines (client), or the
// runtime.
func stackModule(funcs []string) string {
	for _, fn := range funcs {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	for _, fn := range funcs {
		switch {
		case strings.HasPrefix(fn, "net/http.(*conn)"):
			return "httpapi"
		case strings.HasPrefix(fn, "net/http.(*persistConn)"), strings.HasPrefix(fn, "net/http.(*Transport)"):
			return "client"
		}
	}
	return "runtime"
}

// memProfile snapshots cumulative allocated bytes per allocation stack.
func memProfile() map[[32]uintptr]int64 {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	out := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] += r.AllocBytes
	}
	return out
}

// foldMem attributes the bytes allocated between two snapshots to
// modules and returns each module's share.
func foldMem(before, after map[[32]uintptr]int64) map[string]float64 {
	by := map[string]float64{}
	var total float64
	for stk, b := range after {
		d := float64(b - before[stk])
		if d <= 0 {
			continue
		}
		var pcs []uintptr
		for _, pc := range stk {
			if pc == 0 {
				break
			}
			pcs = append(pcs, pc)
		}
		var funcs []string
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		by[stackModule(funcs)] += d
		total += d
	}
	return shares(by, total)
}

func shares(by map[string]float64, total float64) map[string]float64 {
	if total > 0 {
		for k := range by {
			by[k] /= total
		}
	}
	return by
}
