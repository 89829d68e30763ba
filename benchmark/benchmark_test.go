package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"hotspot/internal/active"
	"hotspot/internal/geom"
	"hotspot/internal/train"
)

// benchDoc is BENCHMARK.json, the contract the result lines must meet.
type benchDoc struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDoc(t *testing.T) benchDoc {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d benchDoc
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	d := readDoc(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, m := range d.PerLayer {
		if u := unit(m.Name); u != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, benchmark prints %q", m.Name, m.Unit, u)
		}
	}
}

// runTiny runs one workload at test size and returns its result line.
func runTiny(t *testing.T, name string, traced bool) resultJSON {
	t.Helper()
	w, _ := findWorkload(name)
	var out bytes.Buffer
	c := &config{seed: 5, seconds: 1, trace: traced, tiny: true, log: &out}
	o, err := w.run(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if traced {
		if err := fillLayers(c, w, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	res, err := report(c, o, &out)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, "trace ") {
			t.Log(l)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d wrong=%v", name, res.Correct, res.Attempted, res.Failed, o.wrong)
	}
	return res
}

// TestTinyRunsEmitEveryMetric runs each workload at test size, untraced
// and traced, and checks the result lines carry exactly the metrics of
// BENCHMARK.json with their units.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := readDoc(t)
	for _, w := range append(workloads, interactive) {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				want := d.EndToEnd
				if traced {
					want = d.PerLayer
				}
				res := runTiny(t, w.name, traced)
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, BENCHMARK.json names %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("traced=%v: metric %s = %+v (present %v), want unit %s", traced, m.Name, got, ok, m.Unit)
					}
				}
			}
		})
	}
}

func flip(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }

func isGate(err error) bool {
	var g *gateError
	return errors.As(err, &g)
}

// TestFlippedBitFailsGate flips the lowest bit of one output of each
// workload and checks that the gate guarding it fails.
func TestFlippedBitFailsGate(t *testing.T) {
	const seed = 7
	t.Run("serve", func(t *testing.T) {
		rig, err := newServeRig(seed)
		if err != nil {
			t.Fatal(err)
		}
		defer rig.close()
		clips := []geom.Clip{iccadClip(seed, streamGate, 0), iccadClip(seed, streamGate, 1)}
		ref, err := referenceProbs(seed, clips)
		if err != nil {
			t.Fatal(err)
		}
		if err := gateServe(rig, clips, ref); err != nil {
			t.Fatalf("unflipped gate: %v", err)
		}
		ref[1] = flip(ref[1])
		if err := gateServe(rig, clips, ref); !isGate(err) {
			t.Fatalf("flipped reference passed the gate: %v", err)
		}
		o := &outcome{}
		account(o, "measure", []reply{{status: 200, probs: []float64{ref[0]}}}, func(int) []float64 { return []float64{flip(ref[0])} })
		if len(o.wrong) != 1 {
			t.Fatalf("flipped served prob not reported: %v", o.wrong)
		}
	})
	t.Run("die-scan", func(t *testing.T) {
		rig, err := newScanRig(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rig.sc.Scan()
		if err != nil {
			t.Fatal(err)
		}
		net0, err := paperNet(seed)
		if err != nil {
			t.Fatal(err)
		}
		windows := sampleWindows(seed, res.WindowsX, res.WindowsY, 3)
		if err := gateWindows(net0, rig, res.Probs, windows); err != nil {
			t.Fatalf("unflipped gate: %v", err)
		}
		bad := append([]float64(nil), res.Probs...)
		bad[windows[2]] = flip(bad[windows[2]])
		if err := gateWindows(net0, rig, bad, windows); !isGate(err) {
			t.Fatalf("flipped heat map passed the gate: %v", err)
		}
		if sameHeat(res.Probs, bad) {
			t.Fatal("sameHeat missed a flipped bit")
		}
	})
	t.Run("learn", func(t *testing.T) {
		c := &config{seed: seed, tiny: true}
		sz := sizeLearn(c)
		sz.rounds = 2
		rig, err := newLearnRig(seed, sz)
		if err != nil {
			t.Fatal(err)
		}
		m, err := learnPhase(rig, seed, sz, nil, span{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := loopConfig(seed, sz)
		if err := replaySelection(rig.net, rig.pool, cfg, m.snaps, m.reports); err != nil {
			t.Fatalf("unflipped replay: %v", err)
		}
		bad := append([]active.RoundReport(nil), m.reports...)
		sel := append([]int(nil), bad[1].Selected...)
		sel[0] ^= 1
		bad[1].Selected = sel
		if err := replaySelection(rig.net, rig.pool, cfg, m.snaps, bad); err == nil {
			t.Fatal("flipped selection passed the replay")
		}
		ev, err := train.NewEvaluator(m.net, 0)
		if err != nil {
			t.Fatal(err)
		}
		probs, err := ev.PredictProbs(rig.pool.Tensors[:2])
		if err != nil {
			t.Fatal(err)
		}
		clips, core := rig.pool.Clips[:2], learnStyle.CoreRect()
		cores := []geom.Rect{core, core}
		if err := replayInference(m.net, clips, cores, probs, rig.pool.Tensors[:2], map[string]float64{}); err != nil {
			t.Fatalf("unflipped inference replay: %v", err)
		}
		probs[1] = flip(probs[1])
		if err := replayInference(m.net, clips, cores, probs, nil, map[string]float64{}); err == nil {
			t.Fatal("a flipped probability passed the inference replay")
		}
	})
}

// TestInputsDeterministic checks each workload's generated inputs are a
// function of the seed alone.
func TestInputsDeterministic(t *testing.T) {
	gen := map[string]func(seed int64) string{
		"serve-interactive": func(seed int64) string {
			return fmt.Sprint(iccadClip(seed, streamInteractive, 3), poissonSchedule(seed, 50, 40))
		},
		"serve-bulk": func(seed int64) string {
			p := planBulk(seed, 3, 8)
			return fmt.Sprint(p.requests, p.clips)
		},
		"die-scan": func(seed int64) string {
			rig, err := newScanRig(seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(rig.die, dieEdits(seed, rig.die.Frame, 5))
		},
		"learn": func(seed int64) string {
			sz := sizeLearn(&config{tiny: true})
			rig, err := newLearnRig(seed, sz)
			if err != nil {
				t.Fatal(err)
			}
			var xs []float64
			for _, s := range append(rig.trainSet, rig.evalSet...) {
				xs = append(xs, s.X.Data()...)
			}
			for _, x := range rig.pool.Tensors {
				xs = append(xs, x.Data()...)
			}
			return checksum(xs) + fmt.Sprint(active.WeightChecksum(rig.net))
		},
	}
	for _, w := range append(workloads, interactive) {
		g := gen[w.name]
		if g == nil {
			t.Fatalf("no input generator check for %s", w.name)
		}
		a, b, other := g(3), g(3), g(4)
		if a != b {
			t.Errorf("%s: seed 3 gave different inputs on two calls", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w.name)
		}
	}
}

func TestLatency(t *testing.T) {
	xs := make([]float64, 800)
	for i := range xs {
		xs[i] = float64(800 - i)
	}
	if p50, tl, p := latency(xs); p50 != 400 || tl != 790 || p != 98.75 {
		t.Fatalf("latency of 1..800 = p50 %v, tail %v at p%v; want 400, 790 at p98.75", p50, tl, p)
	}
	// 160 rescans: ten samples beyond p93.75.
	if _, tl, p := latency(xs[640:]); tl != 150 || p != 93.75 {
		t.Fatalf("tail of 1..160 = %v at p%v; want 150 at p93.75", tl, p)
	}
	// Below 21 samples the median stands in for the tail.
	if _, tl, p := latency(xs[785:]); tl != 8 || p != 8.0/15*100 {
		t.Fatalf("tail of 15 samples = %v at p%v, want the median", tl, p)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 70}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	if self[1] != 40 || self[2] != 30 || self[3] != 30 || self[4] != 10 {
		t.Fatalf("self times %v", self)
	}
	if u := unattributed(spans, 1); u != 0.4 {
		t.Fatalf("unattributed = %v, want 0.4", u)
	}
	if g := largestGap(spans, 1); g != (gap{lo: 70, hi: 100, after: "b"}) {
		t.Fatalf("largest gap %+v, want [70,100) after b", g)
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "learn", "--trace", "2"}, {"--workload", "learn", "--seconds", "0"}} {
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v exited 0", args)
		}
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatal("a rejected invocation printed a result")
	}
}
