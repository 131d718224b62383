package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"xrank"
	"xrank/internal/datagen/xmark"
	"xrank/internal/elemrank"
	"xrank/internal/index"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// ingest-live: reads while the index grows. The engine starts from a
// seeded XMark base and writes through a byte-counting storage.FS. One
// writer commits small XMark batches with AddDocs at a fixed pace,
// deletes a document now and then, and calls CompactOnce whenever more
// than ingestMaxSegments segments are live (the serve default), so
// compaction cycles fall at the same points on every run. One reader
// runs closed-loop HDIL searches with the result cache off meanwhile.
// Parse, ElemRank, index build, persistence and compaction dominate; a
// change that trades read cost for write cost shows only here.
const (
	ingestBaseDocs     = 8
	ingestBatchDocs    = 1
	ingestBatchesPerS  = 2 // writer pace: batches per second of the main phase
	ingestDeleteEvery  = 5 // every fifth batch also deletes an earlier document
	ingestMaxSegments  = 4
	ingestReplay       = 6 // batches replayed layer by layer in a traced pass
	ingestReaderStream = 1 << 14
	ingestWarmup       = 512 // untimed reader searches before the phase
)

// ingestCycle is the time the writer takes from one compaction to the
// next: the base is one segment and each batch adds one, so every
// ingestMaxSegments-th batch compacts. The reader's latency and rate are
// taken per cycle-long window, so each window holds the same writer work.
const ingestCycle = ingestMaxSegments * time.Second / ingestBatchesPerS

// ingestLadder: read capacity of the final, compacted index, on which the
// median search takes about 2.5 ms with two connections busy; the limit is
// five times that.
var ingestLadder = ladderSpec{
	rates:   []float64{100, 150, 200, 250, 300, 350, 400, 500, 600, 800},
	step:    time.Second,
	limitMs: 15,
}

// ingestBatch is one AddDocs call and the document it deletes, if any.
type ingestBatch struct {
	docs   []doc
	delete string
}

// ingestBatches returns the writer's seeded batches. Each document
// carries a marker term found in no other document, so a search for it
// shows whether the document is visible.
func ingestBatches(seed int64, n int) []ingestBatch {
	rng := newRNG(seed, 21)
	out := make([]ingestBatch, n)
	var live []string // committed by earlier batches and not deleted
	for i := range out {
		if i > 0 && i%ingestDeleteEvery == 0 {
			k := rng.Intn(len(live))
			out[i].delete = live[k]
			live = append(live[:k], live[k+1:]...)
		}
		for j := 0; j < ingestBatchDocs; j++ {
			name := fmt.Sprintf("batch%03d-%d", i, j)
			x := xmark.Generate(xmark.Params{
				Seed:  seed*104729 + int64(i*ingestBatchDocs+j),
				Items: 10, People: 6, OpenAuctions: 6, ClosedAuctions: 4, Categories: 1,
				VocabSize: serveVocab + 1,
			})
			x = strings.Replace(x, "<site>", "<site><note>"+markerTerm(name)+"</note>", 1)
			out[i].docs = append(out[i].docs, doc{name, x})
		}
		for _, d := range out[i].docs {
			live = append(live, d.name)
		}
	}
	return out
}

// markerTerm is the term planted in document name.
func markerTerm(name string) string { return "zqmark" + strings.ReplaceAll(name, "-", "x") }

// readerStream returns the reader's queries: Zipf-popular adjacent
// vocabulary pairs, as in serve-http.
func readerStream(seed int64) []string {
	rng := newRNG(seed, 22)
	z := newZipf(rng, serveVocab)
	out := make([]string, ingestReaderStream)
	for i := range out {
		r := int(z.Uint64())
		out[i] = fmt.Sprintf("w%d w%d", r, r+1)
	}
	return out
}

func runIngest(r *run) error {
	base := xmarkDocs(r.seed, "base", ingestBaseDocs)
	var baseBytes int64
	for _, d := range base {
		baseBytes += int64(len(d.xml))
	}
	var (
		e   *xrank.Engine
		cfs *countFS
		dir string
	)
	err := r.setup(7, func(d string) error {
		dir = d
		op := r.beginOp()
		defer r.endOp(op, "client.setup")
		cfs = &countFS{fs: storage.OS}
		var err error
		e, err = r.build(op, &xrank.Config{IndexDir: d, FS: cfs}, base)
		return err
	}, func() { e.Close(); e = nil })
	if err != nil {
		return err
	}
	defer func() { e.Close() }()

	batches := ingestBatches(r.seed, ingestBatchesPerS*r.seconds)
	queries := readerStream(r.seed)
	qc := &queryCounters{}

	// An untimed warm-up pass over the head of the reader's stream, so
	// the first timed searches do not pay for filling the pools.
	for _, q := range queries[:ingestWarmup] {
		e.SearchContext(context.Background(), q, xrank.SearchOptions{})
	}

	// deletedAt records when each DeleteDoc returned; a search that
	// starts after that must not return the document.
	var delMu sync.Mutex
	deletedAt := map[string]time.Time{}

	// The writer's results, read once writerDone is closed.
	var (
		compactions            [][2]time.Duration // intervals since the phase began
		commitMS               []float64
		batchBytes             int64
		commitIO, compactIO    fsCounts
		compactBusy            time.Duration
		nCompact               int
		writerErr              error
		writerDone             = make(chan struct{})
		interval               = time.Second / ingestBatchesPerS
		phaseStart             = time.Now()
		searchesDuringCompacts []float64
	)
	if err := r.startProfiles(); err != nil {
		return err
	}
	go func() {
		defer close(writerDone)
		for i, b := range batches {
			if wait := time.Until(phaseStart.Add(time.Duration(i) * interval)); wait > 0 {
				time.Sleep(wait)
			}
			add := map[string]string{}
			for _, d := range b.docs {
				add[d.name] = d.xml
				batchBytes += int64(len(d.xml))
			}
			r.attempted.Add(1)
			op := r.beginOp()
			io0 := cfs.snapshot()
			t0 := time.Now()
			err := e.AddDocs(readerMap(add))
			d := time.Since(t0)
			r.span(op, "xrank.AddDocs", t0)
			r.endOp(op, "client.commit")
			if err != nil {
				r.failed.Add(1)
				writerErr = fmt.Errorf("AddDocs batch %d: %w", i, err)
				return
			}
			commitIO = addCounts(commitIO, cfs.snapshot().sub(io0))
			commitMS = append(commitMS, float64(d)/float64(time.Millisecond))
			for _, doc := range b.docs {
				r.checkVisible(e, doc.name, true)
			}
			if b.delete != "" {
				r.attempted.Add(1)
				if err := e.DeleteDoc(b.delete); err != nil {
					r.failed.Add(1)
					writerErr = fmt.Errorf("DeleteDoc %s: %w", b.delete, err)
					return
				}
				delMu.Lock()
				deletedAt[b.delete] = time.Now()
				delMu.Unlock()
				r.checkVisible(e, b.delete, false)
			}
			if e.SegmentCount() > ingestMaxSegments {
				r.attempted.Add(1)
				op := r.beginOp()
				io0 := cfs.snapshot()
				t0 := time.Now()
				_, err := e.CompactOnce(0)
				t1 := time.Now()
				r.span(op, "xrank.CompactOnce", t0)
				r.endOp(op, "client.compact")
				if err != nil {
					r.failed.Add(1)
					writerErr = fmt.Errorf("CompactOnce: %w", err)
					return
				}
				compactIO = addCounts(compactIO, cfs.snapshot().sub(io0))
				compactBusy += t1.Sub(t0)
				nCompact++
				compactions = append(compactions, [2]time.Duration{t0.Sub(phaseStart), t1.Sub(phaseStart)})
			}
		}
	}()

	// The reader runs for the whole phase and until the writer has
	// committed every batch.
	var readerSS []sample
	readerStop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		<-writerDone
		time.Sleep(time.Until(phaseStart.Add(r.phase())))
		close(readerStop)
	}()
	go func() {
		defer close(readerDone)
		readerSS = r.closedLoop(1, 24*time.Hour, readerStop, func(_ int, seq int64) (string, error) {
			q := queries[seq%int64(len(queries))]
			start := time.Now()
			res, err := r.search(e, q, xrank.SearchOptions{}, qc)
			if err != nil {
				return "search", err
			}
			delMu.Lock()
			for _, x := range res {
				if at, ok := deletedAt[x.Doc]; ok && at.Before(start) {
					r.mismatch("deleted document %s returned for %q", x.Doc, q)
				}
			}
			delMu.Unlock()
			return "search", nil
		})
	}()
	<-writerDone
	<-readerDone
	if err := r.stopProfiles(); err != nil {
		return err
	}
	if writerErr != nil {
		return writerErr
	}

	r.windowedLatency("search", readerSS, r.phase(), ingestCycle)
	r.metrics["search_qps"] = windowedRate(readerSS, r.phase(), ingestCycle)
	for _, s := range readerSS {
		if s.kind != "search" {
			continue
		}
		for _, c := range compactions {
			if s.start < c[1] && s.start+time.Duration(s.ms*float64(time.Millisecond)) > c[0] {
				searchesDuringCompacts = append(searchesDuringCompacts, s.ms)
				break
			}
		}
	}
	r.metrics["xrank.search_p99_during_compact_ms"] = percentile(searchesDuringCompacts, 0.99)
	r.commits(commitMS, batchBytes)
	r.metrics["storage.bytes_written_per_input_byte"] = float64(commitIO.written) / float64(batchBytes)
	r.metrics["storage.fsyncs_per_commit"] = float64(commitIO.fsyncs) / float64(len(commitMS))
	if nCompact > 0 {
		r.metrics["xrank.compact_s"] = compactBusy.Seconds() / float64(nCompact)
		r.metrics["xrank.compact_bytes_per_input_byte"] = float64(compactIO.written) / float64(baseBytes+batchBytes)
	}
	qc.report(r.metrics)

	// Final compaction, then the footprint.
	if e.SegmentCount() > 1 {
		r.attempted.Add(1)
		if _, err := e.CompactOnce(0); err != nil {
			r.failed.Add(1)
			return fmt.Errorf("final CompactOnce: %w", err)
		}
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.metrics["index_bytes_per_input_byte"] = float64(size) / float64(baseBytes+batchBytes)

	if r.tr != nil {
		var ops []searchOp
		for _, q := range queries[:64] {
			ops = append(ops, searchOp{q: q, algo: xrank.AlgoHDIL})
		}
		r.allocsPerQuery(func(o searchOp) {
			e.SearchContext(context.Background(), o.q, xrank.SearchOptions{})
		}, ops)
		if err := r.replayBatches(base, batches[:min(len(batches), ingestReplay)]); err != nil {
			return err
		}
	}
	if r.ladder {
		r.maxQPSAtSLO(ingestLadder, 2, func(_ int, seq int64) (string, error) {
			_, _, err := e.SearchContext(context.Background(), queries[seq%int64(len(queries))], xrank.SearchOptions{})
			return "search", err
		})
	}
	r.suggestProbe(e, fillerVocab())

	// Reopen: the persisted state alone must answer as the live engine
	// did.
	probe := append([]string(nil), queries[:32]...)
	for _, b := range batches {
		for _, d := range b.docs {
			probe = append(probe, markerTerm(d.name))
		}
	}
	before := map[string][]xrank.SearchResult{}
	for _, q := range probe {
		res, _, err := e.SearchContext(context.Background(), q, xrank.SearchOptions{})
		if err != nil {
			return err
		}
		before[q] = res
	}
	if err := e.Close(); err != nil {
		return err
	}
	e, err = xrank.OpenEngineFS(dir, cfs)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	for _, q := range probe {
		res, _, err := e.SearchContext(context.Background(), q, xrank.SearchOptions{})
		if err != nil {
			return fmt.Errorf("after reopen: %w", err)
		}
		if msg := diffTop(res, before[q]); msg != "" {
			r.mismatch("%q after reopen: %s", q, msg)
		}
	}
	return nil
}

// checkVisible searches name's marker term and records a mismatch unless
// the document is found exactly when it should be.
func (r *run) checkVisible(e *xrank.Engine, name string, want bool) {
	res, _, err := e.SearchContext(context.Background(), markerTerm(name), xrank.SearchOptions{Algorithm: xrank.AlgoDIL})
	if err != nil {
		r.mismatch("marker search for %s: %v", name, err)
		return
	}
	found := false
	for _, x := range res {
		found = found || x.Doc == name
	}
	if found != want {
		r.mismatch("document %s visible=%v right after commit, want %v", name, found, want)
	}
}

// replayBatches repeats, layer by layer through their public calls, the
// work AddDocs does for each batch: parse the batch into the collection
// (xmldoc), recompute ElemRank over the whole collection (elemrank) and
// build the batch's delta index (index). It records the per-batch means.
func (r *run) replayBatches(base []doc, batches []ingestBatch) error {
	col := xmldoc.NewCollection()
	for _, d := range base {
		if _, err := col.AddXML(d.name, strings.NewReader(d.xml), nil); err != nil {
			return err
		}
	}
	var parse, rank, build time.Duration
	var bytes int64
	iters := 0
	for i, b := range batches {
		op := r.beginOp()
		ids := map[uint32]bool{}
		t0 := time.Now()
		for _, d := range b.docs {
			doc, err := col.AddXML(d.name, strings.NewReader(d.xml), nil)
			if err != nil {
				return err
			}
			ids[doc.ID] = true
			bytes += int64(len(d.xml))
		}
		parse += time.Since(t0)
		r.span(op, "xmldoc.AddXML", t0)
		t0 = time.Now()
		g, _ := elemrank.BuildGraph(col)
		res, err := elemrank.Compute(g, elemrank.DefaultParams())
		if err != nil {
			return err
		}
		rank += time.Since(t0)
		iters += res.Iterations
		r.span(op, "elemrank.Compute", t0)
		t0 = time.Now()
		dir := filepath.Join(r.dir, fmt.Sprintf("replay-%03d", i))
		if _, err := index.BuildSharded(col, res.Scores, dir, index.BuildOptions{
			DocFilter: func(doc uint32) bool { return ids[doc] },
		}, 0); err != nil {
			return err
		}
		build += time.Since(t0)
		r.span(op, "index.BuildSharded", t0)
		r.endOp(op, "client.replay")
	}
	n := float64(len(batches))
	mb := float64(bytes) / 1e6
	r.metrics["xmldoc.parse_s_per_mb"] = parse.Seconds() / mb
	r.metrics["elemrank.iterations_per_batch"] = float64(iters) / n
	r.metrics["elemrank.compute_s_per_batch"] = rank.Seconds() / n
	r.metrics["index.build_s_per_mb"] = build.Seconds() / mb
	return nil
}

func addCounts(a, b fsCounts) fsCounts {
	return fsCounts{a.written + b.written, a.read + b.read, a.fsyncs + b.fsyncs, a.renames + b.renames}
}
