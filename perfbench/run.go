package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// run is one pass of a workload: its settings, the metrics it measured
// and the output checks that failed.
type run struct {
	name    string
	seed    int64
	seconds int
	dir     string // scratch directory for index directories
	setups  int    // setup repetitions; setup_s is their median
	ladder  bool   // run the rate ladder behind max_qps_at_slo
	tr      *tracer

	metrics map[string]float64
	samples map[string]int // sample count behind each percentile metric

	attempted atomic.Int64
	failed    atomic.Int64

	mu         sync.Mutex
	mismatches []string
	nMismatch  int
}

func newRun(name string, seed int64, seconds int, dir string, setups int, ladder bool, tr *tracer) *run {
	return &run{
		name: name, seed: seed, seconds: seconds, dir: dir, setups: setups, ladder: ladder, tr: tr,
		metrics: map[string]float64{}, samples: map[string]int{},
	}
}

// mismatch records a failed output check; the run then reports
// correct: false and exits non-zero.
func (r *run) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nMismatch++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *run) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nMismatch == 0
}

// phase returns the main phase's length.
func (r *run) phase() time.Duration { return time.Duration(r.seconds) * time.Second }

// setup builds the engine reps times (at most r.setups), each in a fresh
// directory, and records the median build time as setup_s. build must
// time nothing but the calls that make the engine ready; teardown
// releases everything one build made except its directory, which setup
// removes. The last build is kept.
func (r *run) setup(reps int, build func(dir string) error, teardown func()) error {
	var times []float64
	prev := ""
	for i := 0; i < min(reps, r.setups); i++ {
		if prev != "" {
			teardown()
			os.RemoveAll(prev)
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		if err := build(dir); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		prev = dir
	}
	r.metrics["setup_s"] = median(times)
	r.samples["setup_s"] = len(times)
	return nil
}

// stretch is how many consecutive samples latency takes each percentile
// over: enough that p99 has ten samples beyond it.
const stretch = 1000

// latency records name_p50_ms and name_p99_ms over ms, in completion
// order. With at least two stretches of samples, each percentile is taken
// per stretch and the median over stretches is reported, so a stall of
// the machine that hits one stretch does not set the result.
func (r *run) latency(name string, ms []float64) {
	for _, p := range []struct {
		suffix string
		q      float64
	}{{"_p50_ms", 0.50}, {"_p99_ms", 0.99}} {
		k := max(len(ms)/stretch, 1)
		per := make([]float64, k)
		for i := range per {
			per[i] = percentile(ms[i*len(ms)/k:(i+1)*len(ms)/k], p.q)
		}
		r.metrics[name+p.suffix] = median(per)
		r.samples[name+p.suffix] = len(ms)
	}
}

// sample is one completed operation.
type sample struct {
	kind  string
	start time.Duration // since the phase began (the due time in an open loop)
	ms    float64       // latency; +Inf when the operation failed
}

// latencies returns the latencies of kind, in ms, in start order.
func latencies(ss []sample, kind string) []float64 {
	var of []sample
	for _, s := range ss {
		if s.kind == kind {
			of = append(of, s)
		}
	}
	sort.SliceStable(of, func(i, j int) bool { return of[i].start < of[j].start })
	out := make([]float64, len(of))
	for i, s := range of {
		out[i] = s.ms
	}
	return out
}

// op performs one operation of a seeded stream; seq is its position in
// the stream and worker the client running it. It returns the kind of
// operation for latency bucketing and an error when the call failed.
type op func(worker int, seq int64) (kind string, err error)

// do runs one operation and accounts for it.
func (r *run) do(fn op, worker int, seq int64) (string, bool) {
	r.attempted.Add(1)
	kind, err := fn(worker, seq)
	if err != nil {
		if r.failed.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: operation %d failed: %v\n", kind, seq, err)
		}
		return kind, false
	}
	return kind, true
}

// closedLoop runs clients workers, each sending its next operation as
// soon as the previous one returns, until d has elapsed or stop is
// closed. Operations are taken from one shared sequence so the stream is
// the same whatever the interleaving.
func (r *run) closedLoop(clients int, d time.Duration, stop <-chan struct{}, fn op) []sample {
	var next atomic.Int64
	per := make([][]sample, clients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				if start.Sub(t0) >= d {
					return
				}
				kind, ok := r.do(fn, c, next.Add(1)-1)
				ms := math.Inf(1)
				if ok {
					ms = msSince(start)
				}
				per[c] = append(per[c], sample{kind: kind, start: start.Sub(t0), ms: ms})
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// windowRate returns the median over the whole seconds of a phase of d of
// the searches completed in each, which a single stall moves less than
// the phase's mean rate.
func windowRate(ss []sample, d time.Duration) float64 {
	return windowedRate(ss, d, time.Second)
}

// windowedRate is windowRate over windows of width: the median of the
// searches completed per second in each whole window of a phase of d. A
// phase shorter than width is one window.
func windowedRate(ss []sample, d, width time.Duration) float64 {
	width = min(width, d)
	counts := make([]float64, int(d/width))
	for _, s := range ss {
		if i := int(s.start / width); s.kind == "search" && i < len(counts) && !math.IsInf(s.ms, 1) {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

// windowedLatency records name_p50_ms and name_p99_ms like latency, but
// takes each percentile over the searches started in each whole window of
// width of a phase of d and reports the median over windows. Where the
// work changes along the phase, a window holds the same stretch of it on
// every run, whatever the rate, so the result does not shift with the
// number of samples the way count-based stretches do. A phase shorter
// than width is one window.
func (r *run) windowedLatency(name string, ss []sample, d, width time.Duration) {
	width = min(width, d)
	per := make([][]float64, int(d/width))
	n := 0
	for _, s := range ss {
		if i := int(s.start / width); s.kind == "search" && i < len(per) {
			per[i] = append(per[i], s.ms)
			n++
		}
	}
	for _, p := range []struct {
		suffix string
		q      float64
	}{{"_p50_ms", 0.50}, {"_p99_ms", 0.99}} {
		var ws []float64
		for _, ms := range per {
			if len(ms) > 0 {
				ws = append(ws, percentile(ms, p.q))
			}
		}
		r.metrics[name+p.suffix] = median(ws)
		r.samples[name+p.suffix] = n
	}
}

// poisson returns seeded Poisson arrival offsets at rate per second
// within d.
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// openLoop offers operations at the scheduled arrival offsets. A
// dispatcher releases each arrival at its due time to a fixed set of
// workers, one per connection; when all workers are busy, released
// arrivals queue behind them. Latency counts from the due time, which
// charges a stall to every request it delays, less the generator's own
// send slip (see below). Arrivals still unsent once grace has passed
// after the schedule ends are not sent; they count as misses.
func (r *run) openLoop(workers int, arrivals []time.Duration, grace time.Duration, fn op) (ss []sample, slip []float64) {
	// Sized to every arrival, so the dispatcher never blocks behind busy
	// workers and keeps releasing on schedule.
	released := make(chan int, len(arrivals))
	per := make([][]sample, workers)
	slips := make([][]float64, workers)
	end := grace
	if n := len(arrivals); n > 0 {
		end += arrivals[n-1]
	}
	t0 := time.Now()
	go func() {
		defer close(released)
		for i, at := range arrivals {
			if wait := time.Until(t0.Add(at)); wait > 0 {
				time.Sleep(wait)
			}
			released <- i
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			free := time.Now() // this worker's connection is idle from here
			for i := range released {
				due := t0.Add(arrivals[i])
				now := time.Now()
				if now.Sub(t0) > end {
					// Backlog: never sent within the step. It is no
					// operation attempted, but it misses any limit.
					per[w] = append(per[w], sample{kind: "unsent", start: arrivals[i], ms: math.Inf(1)})
					continue
				}
				// The request could have left at ready: its due time, or
				// later when a busy connection freed up. Time spent behind
				// a busy connection is the system's and counts. Time past
				// ready is the generator's own lateness (timer wake-ups run
				// about a millisecond late) and is reported as slip.
				ready := due
				if free.After(due) {
					ready = free
				}
				s := max(now.Sub(ready), 0)
				slips[w] = append(slips[w], float64(s)/float64(time.Millisecond))
				kind, ok := r.do(fn, w, int64(i))
				ms := math.Inf(1)
				if ok {
					ms = float64(time.Since(due)-s) / float64(time.Millisecond)
				}
				per[w] = append(per[w], sample{kind: kind, start: arrivals[i], ms: ms})
				free = time.Now()
			}
		}(w)
	}
	wg.Wait()
	for w := range per {
		ss = append(ss, per[w]...)
		slip = append(slip, slips[w]...)
	}
	return ss, slip
}

// ladderSpec is a fixed ladder of offered rates and the latency limit
// behind max_qps_at_slo.
type ladderSpec struct {
	rates   []float64 // offered operations per second, ascending
	step    time.Duration
	limitMs float64 // on the median search latency from the due time
}

// maxQPSAtSLO records max_qps_at_slo: the highest offered rate on the
// ladder at which the median search latency, counted from each request's
// due time with failed and unsent requests as misses, stays within the
// limit. Below capacity the median sits near the service time; past it
// the backlog grows through each step and the median with it, so the
// climb stops where the queue starts to grow. (On a small shared virtual
// machine a tail percentile of one-second steps follows the hypervisor's
// steal time instead; see METRICS.md.) The climb offers open-loop Poisson
// arrivals step by step; a missed step is offered once more, since a
// stall of the machine rarely hits both tries while a growing queue
// always does. Between the last rate within the limit and the first
// beyond it, the rate is interpolated where the log of the median crosses
// the limit, so the result moves smoothly instead of in ladder steps. A
// ladder with no miss reports its top rate.
func (r *run) maxQPSAtSLO(l ladderSpec, workers int, fn op) {
	rng := newRNG(r.seed, 7001)
	step := func(rate float64) float64 {
		runtime.GC()
		ss, _ := r.openLoop(workers, poisson(rng, rate, l.step), l.step, fn)
		var ms []float64
		for _, s := range ss {
			if s.kind != "suggest" {
				ms = append(ms, s.ms)
			}
		}
		p50 := percentile(ms, 0.5)
		fmt.Printf("  ladder %-8.0f /s: %5d sent, search p50 %8.3f ms\n", rate, len(ss), p50)
		return p50
	}
	best, prevRate, prevMs := 0.0, 0.0, 0.0
	for _, rate := range l.rates {
		ms := step(rate)
		if ms > l.limitMs {
			ms = min(ms, step(rate))
		}
		if ms <= l.limitMs {
			best, prevRate, prevMs = rate, rate, ms
			continue
		}
		if prevRate > 0 && !math.IsInf(ms, 1) {
			f := (math.Log(l.limitMs) - math.Log(prevMs)) / (math.Log(ms) - math.Log(prevMs))
			best = prevRate + f*(rate-prevRate)
		}
		break
	}
	r.metrics["max_qps_at_slo"] = best
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
