package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// opStream renders every seeded input a workload's operations come from.
func opStream(seed int64) []byte {
	var b bytes.Buffer
	for _, o := range longlistStream(seed, 500) {
		fmt.Fprintln(&b, "longlist", o)
	}
	for _, o := range serveStream(seed, 500) {
		fmt.Fprintln(&b, "serve", o.suggest, o.q)
	}
	for _, at := range poisson(newRNG(seed, 13), 1000, time.Second) {
		fmt.Fprintln(&b, "arrival", at)
	}
	for _, bt := range ingestBatches(seed, 4) {
		for _, d := range bt.docs {
			fmt.Fprintln(&b, "add", d.name, d.xml)
		}
		fmt.Fprintln(&b, "delete", bt.delete)
	}
	for _, q := range readerStream(seed)[:500] {
		fmt.Fprintln(&b, "read", q)
	}
	for _, d := range xmarkDocs(seed, "x", 2) {
		fmt.Fprintln(&b, "base", d.name, d.xml)
	}
	return b.Bytes()
}

func TestOpStreamIsSeeded(t *testing.T) {
	a, b := opStream(1), opStream(1)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different operation streams")
	}
	if bytes.Equal(a, opStream(2)) {
		t.Fatal("different seeds produced the same operation stream")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs each workload briefly, untraced and traced, and checks
// that the result line carries every metric BENCHMARK.json names, with
// its unit, and that the outputs checked out.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds each workload's engine several times")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		fn, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
		for _, traced := range []bool{false, true} {
			line, err := execute(w.Name, fn, 1, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, line.Correct, line.Attempted, line.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
