package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xrank"
	"xrank/internal/datagen/perfgen"
	"xrank/internal/elemrank"
	"xrank/internal/index"
	"xrank/internal/query"
	"xrank/internal/xmldoc"
)

// search-longlist: the paper's Figure 10/11 regime. The perfgen corpus
// at 60k records makes each planted keyword's inverted list long enough
// that dil.post (about 12 MB) far exceeds the 128 × 8 KiB buffer pool
// each index file gets, so DIL and HDIL queries read pages from the
// device on every run. Two closed-loop clients, default config, result
// cache off: the work is in query, index, btree and storage.
const (
	longlistRecords = 60000
	longlistGroups  = 3
	longlistWidth   = 4
	longlistClients = 2
)

// longlistLadder: two closed-loop clients complete about 125 searches/s
// at a median near 15 ms; the limit is ten times that median.
var longlistLadder = ladderSpec{
	rates:   []float64{40, 60, 80, 100, 115, 130, 145, 160, 180},
	step:    1500 * time.Millisecond,
	limitMs: 150,
}

// searchOp is one query of a stream: its keywords and algorithm.
type searchOp struct {
	q    string
	algo xrank.Algorithm
}

func (o searchOp) String() string { return o.algo.String() + " " + o.q }

// longlistQueries returns the distinct queries of the mix: keyword sets
// of 2 and 3 from each planted group, high-correlation ones under DIL,
// RDIL and HDIL, low-correlation ones under DIL and HDIL. RDIL on
// low-correlation keywords is left out: at 0.5–1.4 s a query it alone
// would set the tail.
func longlistQueries() []searchOp {
	var out []searchOp
	for _, corr := range []string{"hicorr", "locorr"} {
		algos := []xrank.Algorithm{xrank.AlgoDIL, xrank.AlgoRDIL, xrank.AlgoHDIL}
		if corr == "locorr" {
			algos = []xrank.Algorithm{xrank.AlgoDIL, xrank.AlgoHDIL}
		}
		for g := 0; g < longlistGroups; g++ {
			for k := 2; k <= 3; k++ {
				for _, a := range algos {
					out = append(out, searchOp{markerQuery(corr, g, k), a})
				}
			}
		}
	}
	return out
}

// markerQuery returns the first k planted keywords of group g.
func markerQuery(corr string, g, k int) string {
	kw := make([]string, k)
	for i := range kw {
		kw[i] = fmt.Sprintf("%s%dk%d", corr, g, i)
	}
	return strings.Join(kw, " ")
}

// longlistStream returns n operations: the mix in rounds, each round a
// seeded permutation, so every stretch of the stream holds the mix's
// exact proportions.
func longlistStream(seed int64, n int) []searchOp {
	mix := longlistQueries()
	rng := newRNG(seed, 1)
	out := make([]searchOp, 0, n+len(mix))
	for len(out) < n {
		for _, i := range rng.Perm(len(mix)) {
			out = append(out, mix[i])
		}
	}
	return out[:n]
}

func longlistCorpus(seed int64) []doc {
	var out []doc
	for _, d := range perfgen.Generate(perfgen.Params{Seed: seed, Blocks: longlistRecords, Groups: longlistGroups, Width: longlistWidth}) {
		out = append(out, doc{d.Name, d.XML})
	}
	return out
}

func runLonglist(r *run) error {
	docs := longlistCorpus(r.seed)
	var inputBytes int64
	for _, d := range docs {
		inputBytes += int64(len(d.xml))
	}
	var e *xrank.Engine
	var dir string
	err := r.setup(3, func(d string) error {
		dir = d
		op := r.beginOp()
		defer r.endOp(op, "client.setup")
		var err error
		e, err = r.build(op, &xrank.Config{IndexDir: d}, docs)
		return err
	}, func() { e.Close(); e = nil })
	if err != nil {
		return err
	}
	defer e.Close()
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.metrics["index_bytes_per_input_byte"] = float64(size) / float64(inputBytes)

	// Output checks: every algorithm agrees on every distinct query, and a
	// seeded sample matches the index-free reference evaluation.
	expected := map[string][]xrank.SearchResult{}
	for _, o := range longlistQueries() {
		res, _, err := e.SearchContext(context.Background(), o.q, xrank.SearchOptions{TopM: 10, Algorithm: o.algo})
		if err != nil {
			return fmt.Errorf("check %v: %w", o, err)
		}
		if want, ok := expected[o.q]; !ok {
			expected[o.q] = res
		} else if msg := diffTop(res, want); msg != "" {
			r.mismatch("%v disagrees with DIL: %s", o, msg)
		}
	}
	if err := r.replayBuild(docs, inputBytes, func(col *xmldoc.Collection, ranks []float64) error {
		rng := newRNG(r.seed, 2)
		for _, corr := range []string{"hicorr", "locorr"} {
			q := markerQuery(corr, rng.Intn(longlistGroups), 2+rng.Intn(2))
			qo := query.DefaultOptions()
			ref, err := query.BruteForce(col, ranks, strings.Fields(q), qo)
			if err != nil {
				return err
			}
			got, _, err := e.SearchContext(context.Background(), q, xrank.SearchOptions{TopM: 10, Algorithm: xrank.AlgoDIL})
			if err != nil {
				return err
			}
			if msg := diffReference(got, ref, 10); msg != "" {
				r.mismatch("%q differs from query.BruteForce: %s", q, msg)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	stream := longlistStream(r.seed, 1<<20)
	qc := &queryCounters{}
	search := func(worker int, seq int64) (string, error) {
		o := stream[seq%int64(len(stream))]
		res, err := r.search(e, o.q, xrank.SearchOptions{TopM: 10, Algorithm: o.algo}, qc)
		if err != nil {
			return "search", err
		}
		if msg := diffTop(res, expected[o.q]); msg != "" {
			r.mismatch("%v: %s", o, msg)
		}
		return "search", nil
	}

	runtime.GC() // collect the checks' garbage outside the timing
	if err := r.startProfiles(); err != nil {
		return err
	}
	ss := r.closedLoop(longlistClients, r.phase(), nil, search)
	if err := r.stopProfiles(); err != nil {
		return err
	}
	ms := latencies(ss, "search")
	r.latency("search", ms)
	r.metrics["search_qps"] = windowRate(ss, r.phase())
	qc.report(r.metrics)
	if r.tr != nil {
		r.allocsPerQuery(func(o searchOp) {
			e.SearchContext(context.Background(), o.q, xrank.SearchOptions{TopM: 10, Algorithm: o.algo})
		}, longlistQueries())
	}
	if r.ladder {
		r.maxQPSAtSLO(longlistLadder, longlistClients, search)
	}

	// Keystroke completions and commits on the same engine, after the
	// search phases so they do not disturb them.
	r.suggestProbe(e, append(markerVocab(), fillerVocab()...))
	var batches []map[string]string
	for i := 0; i < commitProbeBatches; i++ {
		extra := perfgen.Generate(perfgen.Params{Seed: r.seed*100 + int64(i), Blocks: 400, Groups: longlistGroups, Width: longlistWidth})
		batches = append(batches, map[string]string{fmt.Sprintf("extra%02d.xml", i): extra[0].XML})
	}
	return r.commitProbe(e, batches)
}

// build makes an engine ready from docs with the calls setup_s times:
// NewEngine, AddXML per document and Build.
func (r *run) build(op opSpan, cfg *xrank.Config, docs []doc) (*xrank.Engine, error) {
	e := xrank.NewEngine(cfg)
	for _, d := range docs {
		t0 := time.Now()
		if err := e.AddXML(d.name, strings.NewReader(d.xml)); err != nil {
			e.Close()
			return nil, err
		}
		r.span(op, "xrank.AddXML", t0)
	}
	t0 := time.Now()
	if _, err := e.Build(); err != nil {
		e.Close()
		return nil, err
	}
	r.span(op, "xrank.Build", t0)
	return e, nil
}

// markerVocab returns the planted keywords of the perfgen corpus.
func markerVocab() []string {
	var out []string
	for _, corr := range []string{"hicorr", "locorr"} {
		for g := 0; g < longlistGroups; g++ {
			for k := 0; k < longlistWidth; k++ {
				out = append(out, fmt.Sprintf("%s%dk%d", corr, g, k))
			}
		}
	}
	return out
}

// replayBuild parses docs into a collection and computes ElemRank with
// the engine's default parameters, through the layers' own public calls,
// then hands both to check. In a traced pass it also times the layers:
// parse (xmldoc), rank computation (elemrank) and a full index build
// (index) on the same inputs the engine's setup received.
func (r *run) replayBuild(docs []doc, inputBytes int64, check func(*xmldoc.Collection, []float64) error) error {
	op := r.beginOp()
	col := xmldoc.NewCollection()
	t0 := time.Now()
	for _, d := range docs {
		if _, err := col.AddXML(d.name, strings.NewReader(d.xml), nil); err != nil {
			return err
		}
	}
	parse := time.Since(t0)
	r.span(op, "xmldoc.AddXML", t0)
	t0 = time.Now()
	g, _ := elemrank.BuildGraph(col)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil {
		return err
	}
	rank := time.Since(t0)
	r.span(op, "elemrank.Compute", t0)
	if err := check(col, res.Scores); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	dir := filepath.Join(r.dir, "replay-index")
	t0 = time.Now()
	if _, err := index.BuildSharded(col, res.Scores, dir, index.BuildOptions{}, 0); err != nil {
		return err
	}
	build := time.Since(t0)
	r.span(op, "index.BuildSharded", t0)
	r.endOp(op, "client.replay")
	os.RemoveAll(dir)
	mb := float64(inputBytes) / 1e6
	r.metrics["xmldoc.parse_s_per_mb"] = parse.Seconds() / mb
	r.metrics["elemrank.iterations_per_batch"] = float64(res.Iterations)
	r.metrics["elemrank.compute_s_per_batch"] = rank.Seconds()
	r.metrics["index.build_s_per_mb"] = build.Seconds() / mb
	return nil
}

// diffTop reports the first difference between two ranked lists (an
// entry, or the order), or "" when they are identical.
func diffTop[T comparable](got, want []T) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("entry %d is %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// diffReference compares the engine's top-k with the reference
// evaluation's full ranking.
func diffReference(got []xrank.SearchResult, ref []query.Result, k int) string {
	if len(ref) > k {
		ref = ref[:k]
	}
	if len(got) != len(ref) {
		return fmt.Sprintf("%d results, reference has %d", len(got), len(ref))
	}
	for i := range got {
		if got[i].DeweyID != ref[i].ID.String() || got[i].Score != ref[i].Score {
			return fmt.Sprintf("result %d is %s/%v, reference %s/%v", i, got[i].DeweyID, got[i].Score, ref[i].ID, ref[i].Score)
		}
	}
	return ""
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// readerMap turns named documents into AddDocs input.
func readerMap(docs map[string]string) map[string]io.Reader {
	m := make(map[string]io.Reader, len(docs))
	for n, x := range docs {
		m[n] = strings.NewReader(x)
	}
	return m
}
