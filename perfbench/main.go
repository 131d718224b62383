// Command perfbench is the repository's benchmark: it builds the engine
// from seeded inputs, drives one workload against it from outside through
// public calls, checks the outputs, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// workload runs twice in one process, untraced and then traced, and the
// metrics are the per-layer metrics plus the tracing overhead. The traced
// pass writes its spans to .bench_build/trace/. See METRICS.md for what
// each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees and a change is
// gated on; every workload reports all of them (see METRICS.md for how
// each is taken where the workload's main phase does not produce it).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"search_qps", "1/s"},
	{"ingest_mb_per_s", "MB/s"},
	{"commit_p50_ms", "ms"},
	{"index_bytes_per_input_byte", "ratio"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
}

// ungated are printed beside the end-to-end metrics but not gated: on a
// small shared virtual machine the tail of sub-millisecond operations,
// the latency of microsecond in-process completions and the knee the
// rate ladder finds follow the hypervisor's steal time more than the
// program (see METRICS.md). The traced run reports them as client.*
// metrics.
var ungated = []metricDef{
	{"search_p99_ms", "ms"},
	{"suggest_p50_ms", "ms"},
	{"suggest_p99_ms", "ms"},
	{"max_qps_at_slo", "1/s"},
}

// profiledModules are the layers whose CPU and allocation shares the
// traced run reports: the repository's packages, the benchmark itself
// (client), and runtime for samples with no repository frame (GC
// workers, the scheduler).
var profiledModules = []string{
	"client", "httpapi", "cache", "xrank", "query", "index", "btree",
	"storage", "xmldoc", "elemrank", "suggest", "dewey", "text", "runtime",
}

// perLayer are the traced run's metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_search_p50_ms", "ms"},
		{"trace.overhead_search_p99_ms", "ms"},
		{"client.search_p99_ms", "ms"},
		{"client.suggest_p50_ms", "ms"},
		{"client.suggest_p99_ms", "ms"},
		{"client.max_qps_at_slo", "1/s"},
		{"client.send_slip_p99_ms", "ms"},
		{"client.null_rtt_p50_ms", "ms"},
		{"httpapi.queue_ms_mean", "ms"},
		{"httpapi.search_ms_p50", "ms"},
		{"httpapi.overhead_ms_p50", "ms"},
		{"httpapi.shed_ratio", "ratio"},
		{"cache.hit_ratio", "ratio"},
		{"cache.coalesced_ratio", "ratio"},
		{"cache.evictions", "count"},
		{"xrank.materialize_ms_p50", "ms"},
		{"xrank.alloc_kb_per_query", "KiB"},
		{"xrank.allocs_per_query", "count"},
		{"query.open_ms_p50", "ms"},
		{"query.dil_merge_ms_p50", "ms"},
		{"query.rdil_rounds_ms_p50", "ms"},
		{"query.hdil_rounds_ms_p50", "ms"},
		{"query.hdil_switch_ratio", "ratio"},
		{"storage.page_reads_per_query", "count"},
		{"storage.rand_reads_per_query", "count"},
		{"storage.pool_hits_per_query", "count"},
		{"storage.pool_hit_ratio", "ratio"},
		{"storage.sim_ms_per_query", "ms"},
		{"index.blocks_decoded_per_query", "count"},
		{"index.blocks_skipped_ratio", "ratio"},
		{"storage.bytes_written_per_input_byte", "ratio"},
		{"storage.fsyncs_per_commit", "count"},
		{"xrank.compact_s", "s"},
		{"xrank.compact_bytes_per_input_byte", "ratio"},
		{"xrank.search_p99_during_compact_ms", "ms"},
		{"xmldoc.parse_s_per_mb", "s/MB"},
		{"elemrank.iterations_per_batch", "count"},
		{"elemrank.compute_s_per_batch", "s"},
		{"index.build_s_per_mb", "s/MB"},
		{"suggest.nodes_visited_mean", "count"},
		{"suggest.search_ms_p50", "ms"},
	}
	for _, m := range profiledModules {
		defs = append(defs, metricDef{m + ".cpu_share", "ratio"}, metricDef{m + ".alloc_share", "ratio"})
	}
	return defs
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"search-longlist": runLonglist,
	"serve-http":      runServe,
	"ingest-live":     runIngest,
}

// outDir holds everything a run writes; it is relative to the working
// directory, the root of the checkout.
const outDir = ".bench_build"

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "search-longlist, serve-http or ingest-live")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured main phase")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {search-longlist|serve-http|ingest-live} -seed N -seconds S -trace {0|1}\n")
		os.Exit(2)
	}
	line, err := execute(*workload, fn, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !line.Correct {
		os.Exit(1)
	}
}

// execute runs one workload (twice in trace mode) and assembles the
// result line.
func execute(name string, fn func(*run) error, seed int64, seconds int, traced bool) (*resultLine, error) {
	workRoot, traceDir := filepath.Join(outDir, "work"), filepath.Join(outDir, "trace")
	for _, d := range []string{workRoot, traceDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	work, err := os.MkdirTemp(workRoot, name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	if !traced {
		r := newRun(name, seed, seconds, work, 7, true, nil)
		if err := fn(r); err != nil {
			return nil, err
		}
		r.finish()
		r.metrics["peak_rss_mb"] = peakRSSMB()
		line := r.line(endToEnd)
		fmt.Println("  not gated:")
		r.table(ungated)
		return line, nil
	}

	// The traced pass profiles allocations; the rate must be set before
	// the allocations it should see.
	runtime.MemProfileRate = 64 << 10
	plain := newRun(name, seed, seconds, filepath.Join(work, "plain"), 1, true, nil)
	if err := fn(plain); err != nil {
		return nil, err
	}
	tr := newTracer()
	traced0 := newRun(name, seed, seconds, filepath.Join(work, "traced"), 1, false, tr)
	if err := fn(traced0); err != nil {
		return nil, err
	}
	tr.summarize(traced0.metrics)
	for _, m := range []string{"search_p50", "search_p99"} {
		traced0.metrics["trace.overhead_"+m+"_ms"] = traced0.metrics[m+"_ms"] - plain.metrics[m+"_ms"]
	}
	for _, d := range ungated {
		traced0.metrics["client."+d.name] = plain.metrics[d.name]
	}
	spanFile := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", name, seed))
	if err := tr.writeSpans(spanFile); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), spanFile)
	tr.printLayerSelfTimes()
	line := traced0.line(perLayer)
	line.Correct = line.Correct && plain.correct()
	line.Attempted += plain.attempted.Load()
	line.Failed += plain.failed.Load()
	return line, nil
}

// line prints defs as a table and returns the result line carrying them.
// A metric a workload did not measure prints as 0.
func (r *run) line(defs []metricDef) *resultLine {
	out := &resultLine{
		Correct:   r.correct(),
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
	}
	fmt.Printf("%s seed=%d: %d operations, %d failed, outputs correct: %v\n",
		r.name, r.seed, out.Attempted, out.Failed, out.Correct)
	for _, m := range r.mismatches {
		fmt.Printf("  mismatch: %s\n", m)
	}
	out.Metrics = r.table(defs)
	return out
}

// table prints defs with their sample counts and returns their values.
func (r *run) table(defs []metricDef) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
		note := ""
		if n, ok := r.samples[d.name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Printf("  %-38s %14.6g %-6s%s\n", d.name, v, d.unit, note)
	}
	return out
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
