package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xrank"
	"xrank/internal/datagen/xmark"
	"xrank/internal/httpapi"
)

// serve-http: the user-facing path. The engine runs with the serve
// command's defaults (32 MiB result cache, coalescing on, no admission
// limit) behind httpapi.NewMux on a loopback listener in this process.
// One open-loop generator sends Poisson arrivals over at most two
// keep-alive connections: about 80% Zipf-popular HDIL searches, which the
// result cache mostly answers, and 20% suggest keystrokes. The corpus is
// small (about 29k elements, like BENCH_load), so the whole index fits
// the buffer pools: client, httpapi, cache and suggest carry the load.
const (
	serveDocs        = 8
	serveConns       = 2
	serveRate        = 1000 // offered requests per second in the main phase
	serveCacheBytes  = 32 << 20
	serveSuggestFrac = 0.2
	serveVocab       = 256
	serveStreamLen   = 1 << 15 // requests before the stream repeats
	serveWarmup      = 2 * time.Second
	serveSaturation  = 8 * time.Second
)

// serveLadder: offered requests per second of the same mix; the median
// search takes about 0.3 ms, and the limit is ten times that.
var serveLadder = ladderSpec{
	rates:   []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000, 12000, 14000, 16000},
	step:    time.Second,
	limitMs: 3,
}

// serveOp is one request of the stream: a search for q, or a suggest
// keystroke completing q.
type serveOp struct {
	suggest bool
	q       string
}

// serveStream returns n requests of the mix. Search queries are two
// adjacent-frequency vocabulary words at a Zipf-popular rank, the shape
// the load harness uses, so every query matches; keystrokes are
// progressive prefixes of Zipf-popular words.
func serveStream(seed int64, n int) []serveOp {
	rng := newRNG(seed, 11)
	z := newZipf(rng, serveVocab)
	keys := keystrokes(newRNG(seed, 12), fillerVocab(), n)
	out := make([]serveOp, n)
	for i := range out {
		if rng.Float64() < serveSuggestFrac {
			out[i] = serveOp{suggest: true, q: keys[i]}
			continue
		}
		r := int(z.Uint64())
		out[i] = serveOp{q: fmt.Sprintf("w%d w%d", r, r+1)}
	}
	return out
}

// xmarkDocs returns n seeded XMark documents at a quarter of the
// generator's default scale, with text drawn from the shared synthetic
// vocabulary.
func xmarkDocs(seed int64, prefix string, n int) []doc {
	out := make([]doc, n)
	for i := range out {
		out[i] = doc{fmt.Sprintf("%s-%03d", prefix, i), xmark.Generate(xmark.Params{
			Seed:  seed*7919 + int64(i),
			Items: 75, People: 45, OpenAuctions: 50, ClosedAuctions: 30, Categories: 5,
			VocabSize: serveVocab + 1, // adjacent pairs reach rank serveVocab
		})}
	}
	return out
}

func runServe(r *run) error {
	docs := xmarkDocs(r.seed, "xmark", serveDocs)
	var inputBytes int64
	for _, d := range docs {
		inputBytes += int64(len(d.xml))
	}
	var (
		e    *xrank.Engine
		srv  *http.Server
		base string
		dir  string
	)
	err := r.setup(7, func(d string) error {
		dir = d
		op := r.beginOp()
		defer r.endOp(op, "client.setup")
		var err error
		if e, err = r.build(op, &xrank.Config{IndexDir: d}, docs); err != nil {
			return err
		}
		e.ConfigureResultCache(serveCacheBytes)
		e.SetCoalesceQueries(true)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		// The calibration arm: same listener, same server, a handler that
		// does nothing.
		mux.HandleFunc("/null", func(http.ResponseWriter, *http.Request) {})
		mux.Handle("/", httpapi.NewMux(e, httpapi.Options{Metrics: true}))
		srv = &http.Server{Handler: mux}
		go srv.Serve(ln)
		base = "http://" + ln.Addr().String()
		return nil
	}, func() { srv.Close(); e.Close(); srv, e = nil, nil })
	if err != nil {
		return err
	}
	defer e.Close()
	defer srv.Close()
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.metrics["index_bytes_per_input_byte"] = float64(size) / float64(inputBytes)

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	// Expected outputs come from the same engine in process. A page-read
	// budget makes each query execute fresh and stay out of the result
	// cache, so computing them does not warm the cache for the run.
	stream := serveStream(r.seed, serveStreamLen)
	var searchStream []serveOp // the stream without its keystrokes
	for _, o := range stream {
		if !o.suggest {
			searchStream = append(searchStream, o)
		}
	}
	expSearch := map[string][]ranked{}
	expSuggest := map[string][]xrank.Suggestion{}
	for _, o := range stream {
		if o.suggest {
			if _, ok := expSuggest[o.q]; !ok {
				s, _, err := e.Suggest(o.q, 0)
				if err != nil {
					return fmt.Errorf("check suggest %q: %w", o.q, err)
				}
				expSuggest[o.q] = s
			}
		} else if _, ok := expSearch[o.q]; !ok {
			res, _, err := e.SearchContext(context.Background(), o.q, xrank.SearchOptions{MaxPageReads: math.MaxInt64})
			if err != nil {
				return fmt.Errorf("check search %q: %w", o.q, err)
			}
			want := make([]ranked, len(res))
			for i, x := range res {
				want[i] = ranked{x.DeweyID, x.Score}
			}
			expSearch[o.q] = want
		}
	}

	var shed atomic.Int64
	hc := &httpCounters{}
	// One response buffer per connection worker keeps the generator's own
	// allocations, and the garbage collections they cause in this shared
	// process, small.
	bufs := make([]bytes.Buffer, serveConns)
	request := func(w int, o serveOp) (string, error) {
		kind, path := "search", "/api/search?q="
		if o.suggest {
			kind, path = "suggest", "/api/suggest?q="
		}
		op := r.beginOp()
		t0 := time.Now()
		resp, err := client.Get(base + path + url.QueryEscape(o.q))
		if err != nil {
			return kind, err
		}
		bufs[w].Reset()
		_, err = bufs[w].ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return kind, err
		}
		body := bufs[w].Bytes()
		if r.tr != nil {
			call := r.span(op, "httpapi.GET "+strings.TrimSuffix(path, "?q="), t0)
			r.serverTiming(op, call, t0, resp.Header.Get("Server-Timing"))
		}
		defer r.endOp(op, "client."+kind)
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			shed.Add(1)
			return kind, fmt.Errorf("refused: %s", resp.Status)
		default:
			return kind, fmt.Errorf("%s: %s", resp.Status, body)
		}
		if o.suggest {
			var got struct {
				NodesVisited int                `json:"nodes_visited"`
				WallUS       int64              `json:"wall_us"`
				Suggestions  []xrank.Suggestion `json:"suggestions"`
			}
			if err := json.Unmarshal(body, &got); err != nil {
				return kind, err
			}
			if msg := diffTop(got.Suggestions, expSuggest[o.q]); msg != "" {
				r.mismatch("suggest %q over HTTP: %s", o.q, msg)
			}
			if r.tr != nil {
				r.tr.add(op.id, op.root, "suggest.topk", t0, t0.Add(time.Duration(got.WallUS)*time.Microsecond))
				hc.suggest(got.NodesVisited)
			}
			return kind, nil
		}
		var got struct {
			IOReads   int64    `json:"io_reads"`
			CacheHits int64    `json:"cache_hits"`
			Results   []ranked `json:"results"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return kind, err
		}
		if msg := diffTop(got.Results, expSearch[o.q]); msg != "" {
			r.mismatch("search %q over HTTP: %s", o.q, msg)
		}
		hc.search(got.IOReads, got.CacheHits)
		return kind, nil
	}
	mixed := func(w int, seq int64) (string, error) { return request(w, stream[seq%int64(len(stream))]) }

	// Warm-up: traffic from another stretch of the stream fills the
	// result cache with the popular queries; the tail still misses.
	r.openLoop(serveConns, poisson(newRNG(r.seed, 15), serveRate, serveWarmup), time.Second, func(w int, seq int64) (string, error) {
		return mixed(w, seq+serveStreamLen/2)
	})
	runtime.GC()
	cs0 := e.CacheStats()
	if err := r.startProfiles(); err != nil {
		return err
	}
	ss, slip := r.openLoop(serveConns, poisson(newRNG(r.seed, 13), serveRate, r.phase()), time.Second, mixed)
	if err := r.stopProfiles(); err != nil {
		return err
	}
	cs1 := e.CacheStats()
	r.latency("search", latencies(ss, "search"))
	r.latency("suggest", latencies(ss, "suggest"))
	r.metrics["client.send_slip_p99_ms"] = percentile(slip, 0.99)
	hc.report(r.metrics)
	hc.mu.Lock()
	searches := float64(hc.searches)
	hc.mu.Unlock()
	if searches > 0 {
		r.metrics["httpapi.shed_ratio"] = float64(shed.Load()) / searches
		r.metrics["cache.coalesced_ratio"] = float64(cs1.Coalesced-cs0.Coalesced) / searches
	}
	if n := (cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses); n > 0 {
		r.metrics["cache.hit_ratio"] = float64(cs1.Hits-cs0.Hits) / float64(n)
	}
	r.metrics["cache.evictions"] = float64(cs1.Evictions - cs0.Evictions)

	if r.tr != nil {
		// Calibration: the same generator and connections against the
		// no-op handler, timed from the actual send.
		rtt := make([][]float64, serveConns)
		r.openLoop(serveConns, poisson(newRNG(r.seed, 14), serveRate, time.Second), time.Second, func(w int, _ int64) (string, error) {
			t0 := time.Now()
			resp, err := client.Get(base + "/null")
			if err != nil {
				return "null", err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rtt[w] = append(rtt[w], msSince(t0))
			return "null", nil
		})
		r.metrics["client.null_rtt_p50_ms"] = percentile(append(rtt[0], rtt[1]...), 0.5)
		var ops []searchOp
		for _, o := range searchStream[:64] {
			ops = append(ops, searchOp{q: o.q, algo: xrank.AlgoHDIL})
		}
		r.allocsPerQuery(func(o searchOp) {
			e.SearchContext(context.Background(), o.q, xrank.SearchOptions{})
		}, ops)
	}
	if r.ladder {
		r.maxQPSAtSLO(serveLadder, serveConns, mixed)
	}

	// Saturation: searches only, from closed-loop clients, one per
	// connection.
	sat := r.closedLoop(serveConns, serveSaturation, nil, func(w int, seq int64) (string, error) {
		return request(w, searchStream[seq%int64(len(searchStream))])
	})
	r.metrics["search_qps"] = windowRate(sat, serveSaturation)

	var batches []map[string]string
	for i, d := range xmarkDocs(r.seed+1000, "added", commitProbeBatches) {
		batches = append(batches, map[string]string{fmt.Sprintf("%s-%d", d.name, i): d.xml})
	}
	return r.commitProbe(e, batches)
}

// serverTiming records the Server-Timing phases of one response as
// children of its HTTP call span. The header carries durations only, so
// the queue phase is placed at the call's start and the search phase
// right after it.
func (r *run) serverTiming(op opSpan, call int64, t0 time.Time, header string) {
	at := t0
	for _, part := range strings.Split(header, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		end := at.Add(time.Duration(ms * float64(time.Millisecond)))
		r.tr.add(op.id, call, "httpapi."+name, at, end)
		at = end
	}
}

// httpCounters sums what the search and suggest responses report.
type httpCounters struct {
	mu                    sync.Mutex
	searches, reads, hits int64
	suggests, nodes       int64
}

func (c *httpCounters) search(reads, hits int64) {
	c.mu.Lock()
	c.searches++
	c.reads += reads
	c.hits += hits
	c.mu.Unlock()
}

func (c *httpCounters) suggest(nodes int) {
	c.mu.Lock()
	c.suggests++
	c.nodes += int64(nodes)
	c.mu.Unlock()
}

func (c *httpCounters) report(m map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.searches > 0 {
		m["storage.page_reads_per_query"] = float64(c.reads) / float64(c.searches)
		m["storage.pool_hits_per_query"] = float64(c.hits) / float64(c.searches)
		if c.reads+c.hits > 0 {
			m["storage.pool_hit_ratio"] = float64(c.hits) / float64(c.reads+c.hits)
		}
	}
	if c.suggests > 0 {
		m["suggest.nodes_visited_mean"] = float64(c.nodes) / float64(c.suggests)
	}
}

// ranked is the part of a search result the output checks compare.
type ranked struct {
	DeweyID string
	Score   float64
}
