package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"xrank"
	"xrank/internal/text"
)

// doc is one generated input document.
type doc struct{ name, xml string }

func newRNG(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}

// opSpan identifies one traced operation: its ID and its root span.
type opSpan struct {
	id, root int64
	t0       time.Time
}

// beginOp starts a traced operation; untraced passes get a zero value
// and every span call on it is a no-op.
func (r *run) beginOp() opSpan {
	if r.tr == nil {
		return opSpan{}
	}
	return opSpan{id: r.tr.newID(), root: r.tr.newID(), t0: time.Now()}
}

// span records a child of op's root from start to now and returns its ID.
func (r *run) span(op opSpan, name string, start time.Time) int64 {
	if r.tr == nil {
		return 0
	}
	return r.tr.add(op.id, op.root, name, start, time.Now())
}

// endOp records op's root span.
func (r *run) endOp(op opSpan, name string) {
	if r.tr != nil {
		r.tr.record(op.root, op.id, 0, name, op.t0, time.Now())
	}
}

func (r *run) startProfiles() error {
	if r.tr == nil {
		return nil
	}
	return r.tr.startProfiles()
}

func (r *run) stopProfiles() error {
	if r.tr == nil {
		return nil
	}
	return r.tr.stopProfiles()
}

// search runs one in-process query; in a traced pass it records the
// call, the engine's own stages and the query's counters.
func (r *run) search(e *xrank.Engine, q string, opts xrank.SearchOptions, qc *queryCounters) ([]xrank.SearchResult, error) {
	op := r.beginOp()
	t0 := time.Now()
	res, st, err := e.SearchContext(context.Background(), q, opts)
	if r.tr != nil && st != nil {
		call := r.span(op, "xrank.SearchContext", t0)
		r.tr.engineStages(op.id, call, st.Trace)
		qc.add(st)
	}
	r.endOp(op, "client.search")
	return res, err
}

// queryCounters sums the per-query counters QueryStats reports.
type queryCounters struct {
	mu                                  sync.Mutex
	n, hdil, switched                   int64
	reads, rand, hits, decoded, skipped int64
	sim                                 time.Duration
}

func (c *queryCounters) add(st *xrank.QueryStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if st.Algorithm == xrank.AlgoHDIL {
		c.hdil++
		if st.SwitchedToDIL {
			c.switched++
		}
	}
	c.reads += st.IO.Reads
	c.rand += st.IO.RandReads
	c.hits += st.IO.CacheHits
	c.decoded += st.IO.BlocksDecoded
	c.skipped += st.IO.BlocksSkipped
	c.sim += st.SimulatedTime
}

// report writes the storage, index and query counters per query.
func (c *queryCounters) report(m map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return
	}
	n := float64(c.n)
	m["storage.page_reads_per_query"] = float64(c.reads) / n
	m["storage.rand_reads_per_query"] = float64(c.rand) / n
	m["storage.pool_hits_per_query"] = float64(c.hits) / n
	m["storage.sim_ms_per_query"] = float64(c.sim) / float64(time.Millisecond) / n
	if c.hits+c.reads > 0 {
		m["storage.pool_hit_ratio"] = float64(c.hits) / float64(c.hits+c.reads)
	}
	m["index.blocks_decoded_per_query"] = float64(c.decoded) / n
	if c.decoded+c.skipped > 0 {
		m["index.blocks_skipped_ratio"] = float64(c.skipped) / float64(c.decoded+c.skipped)
	}
	if c.hdil > 0 {
		m["query.hdil_switch_ratio"] = float64(c.switched) / float64(c.hdil)
	}
}

// allocsPerQuery runs each query twice from a single client and records
// the mean heap allocation per SearchContext call from MemStats deltas.
func (r *run) allocsPerQuery(call func(searchOp), ops []searchOp) {
	var before, after runtime.MemStats
	var bytes, objs uint64
	n := 0
	for rep := 0; rep < 2; rep++ {
		for _, o := range ops {
			runtime.ReadMemStats(&before)
			call(o)
			runtime.ReadMemStats(&after)
			bytes += after.TotalAlloc - before.TotalAlloc
			objs += after.Mallocs - before.Mallocs
			n++
		}
	}
	r.metrics["xrank.alloc_kb_per_query"] = float64(bytes) / 1024 / float64(n)
	r.metrics["xrank.allocs_per_query"] = float64(objs) / float64(n)
}

// suggestKeystrokes is how many completions a suggest probe sends.
const suggestKeystrokes = 20000

// keystrokes returns n completion requests: progressive prefixes of
// Zipf-popular words from vocab, one character per keystroke, the way a
// search box sends them.
func keystrokes(rng *rand.Rand, vocab []string, n int) []string {
	z := newZipf(rng, len(vocab))
	var out []string
	for len(out) < n {
		w := vocab[z.Uint64()]
		for i := 1; i <= len(w) && len(out) < n; i++ {
			out = append(out, w[:i])
		}
	}
	return out
}

// suggest runs one in-process completion, traced like a search.
func (r *run) suggest(e *xrank.Engine, prefix string) ([]xrank.Suggestion, *xrank.SuggestStats, error) {
	op := r.beginOp()
	t0 := time.Now()
	res, st, err := e.Suggest(prefix, 0)
	if r.tr != nil && st != nil {
		call := r.span(op, "xrank.Suggest", t0)
		r.tr.add(op.id, call, "suggest.topk", t0, t0.Add(st.WallTime))
	}
	r.endOp(op, "client.suggest")
	return res, st, err
}

// suggestProbe measures keystroke completion latency from one
// closed-loop client over a fixed count of seeded keystrokes, for
// workloads whose main phase sends none.
func (r *run) suggestProbe(e *xrank.Engine, vocab []string) {
	keys := keystrokes(newRNG(r.seed, 3001), vocab, suggestKeystrokes)
	// An untimed pass first: after the earlier phases' garbage is
	// collected, the first allocations fault memory back in, which would
	// otherwise be timed as completion latency.
	runtime.GC()
	for _, k := range keys {
		e.Suggest(k, 0)
	}
	var ms []float64
	nodes := 0
	for _, k := range keys {
		r.attempted.Add(1)
		t0 := time.Now()
		_, st, err := r.suggest(e, k)
		if err != nil {
			r.failed.Add(1)
			continue
		}
		ms = append(ms, msSince(t0))
		nodes += st.NodesVisited
	}
	r.latency("suggest", ms)
	if len(ms) > 0 {
		r.metrics["suggest.nodes_visited_mean"] = float64(nodes) / float64(len(ms))
	}
}

// commitProbeBatches is how many AddDocs calls a commit probe makes.
const commitProbeBatches = 20

// commitProbe commits batches one AddDocs call at a time and records
// commit latency and committed input megabytes per second, for workloads
// whose main phase does not write.
func (r *run) commitProbe(e *xrank.Engine, batches []map[string]string) error {
	var ms []float64
	var bytes int64
	runtime.GC()
	for _, b := range batches {
		for _, x := range b {
			bytes += int64(len(x))
		}
		r.attempted.Add(1)
		op := r.beginOp()
		t0 := time.Now()
		err := e.AddDocs(readerMap(b))
		d := time.Since(t0)
		r.span(op, "xrank.AddDocs", t0)
		r.endOp(op, "client.commit")
		if err != nil {
			r.failed.Add(1)
			return fmt.Errorf("AddDocs: %w", err)
		}
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	r.commits(ms, bytes)
	return nil
}

// commits records commit_p50_ms over the AddDocs latencies ms and
// ingest_mb_per_s as the mean batch's input megabytes over the median
// commit time, which one slow fsync moves less than a mean would.
func (r *run) commits(ms []float64, bytes int64) {
	p50 := median(ms)
	r.metrics["commit_p50_ms"] = p50
	r.samples["commit_p50_ms"] = len(ms)
	r.metrics["ingest_mb_per_s"] = float64(bytes) / float64(len(ms)) / 1e6 / (p50 / 1000)
}

// finish records success_ratio from the operations counted so far.
func (r *run) finish() {
	if a := r.attempted.Load(); a > 0 {
		r.metrics["success_ratio"] = 1 - float64(r.failed.Load())/float64(a)
	}
}

// newZipf draws ranks in [0, n) with the load harness's popularity skew.
func newZipf(rng *rand.Rand, n int) *rand.Zipf { return rand.NewZipf(rng, 1.1, 1, uint64(n-1)) }

// fillerVocab is the synthetic background vocabulary both generators use.
func fillerVocab() []string { return text.SyntheticVocab(256) }
