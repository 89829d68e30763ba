package train

import (
	"math"
	"strings"
	"sync"
	"testing"

	"hotspot/internal/tensor"
)

// TestEvaluatorFusedBitParity pins the evaluator's fused engines against
// the serial layer-by-layer oracle at the bit level: PredictProbs returns
// exactly PredictProb's probabilities and EvalSet exactly the serial
// EvalSet's metrics, at every worker count.
func TestEvaluatorFusedBitParity(t *testing.T) {
	samples := imbalancedToy(40, 53)
	xs := make([]*tensor.Tensor, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
	}
	net := dropoutNet(t, 59)
	want := make([]float64, len(xs))
	for i, x := range xs {
		p, err := PredictProb(net, x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	wantM, err := EvalSet(net, samples, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 4} {
		ev, err := NewEvaluator(net, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.PredictProbs(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d sample %d: evaluator %v != layered %v",
					workers, i, got[i], want[i])
			}
		}
		m, err := ev.EvalSet(samples, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if m != wantM {
			t.Fatalf("workers=%d: evaluator metrics %+v != serial %+v", workers, m, wantM)
		}
	}
}

// TestEvaluatorRejectsOffShapeInput: the engines compile for the first
// input's shape, and an input of any other shape is an error — even one
// the layered network would accept (the paper net's pools drop the odd
// edges of a (2,6,6) input and land on the same fc1 width). PredictOn
// before any Prepare is an error too, not a nil dereference.
func TestEvaluatorRejectsOffShapeInput(t *testing.T) {
	net := dropoutNet(t, 61)
	good := randToyInput(2, 4, 4, 71)
	odd := randToyInput(2, 6, 6, 73)
	if _, err := PredictProb(net, odd); err != nil {
		t.Fatalf("layered network should accept the odd shape: %v", err)
	}
	ev, err := NewEvaluator(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.PredictOn(0, good); err == nil {
		t.Fatal("PredictOn before Prepare: want an error")
	}
	if _, err := ev.PredictProbs([]*tensor.Tensor{good, odd, good}); err == nil {
		t.Fatal("mixed-shape batch: want an error")
	}
	if _, err := ev.PredictOn(1, odd); err == nil {
		t.Fatal("PredictOn with an off-shape input: want an error")
	}
	p, err := ev.PredictOn(1, good)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PredictProb(net, good)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(p) != math.Float64bits(want) {
		t.Fatalf("PredictOn %v != layered %v", p, want)
	}
}

// TestEvaluatorEmptyInputs: an empty evaluation set is the serial
// EvalSet's error, not an index panic, and an empty batch scores to an
// empty result.
func TestEvaluatorEmptyInputs(t *testing.T) {
	ev, err := NewEvaluator(dropoutNet(t, 67), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ev.EvalSet(nil, 0)
	if err == nil || !strings.Contains(err.Error(), "empty evaluation set") {
		t.Fatalf("EvalSet(nil): got %v, want the empty-set error", err)
	}
	probs, err := ev.PredictProbs(nil)
	if err != nil || len(probs) != 0 {
		t.Fatalf("PredictProbs(nil) = %v, %v; want an empty result", probs, err)
	}
}

// TestEvaluatorsFusedConcurrent runs several fused evaluators — each
// wrapping its own network clone — at the same time, each fanning across
// its own pool. Under -race this pins the engine ownership story: one
// engine per worker, arenas never shared, weight aliases read-only during
// evaluation.
func TestEvaluatorsFusedConcurrent(t *testing.T) {
	base := dropoutNet(t, 79)
	samples := imbalancedToy(30, 83)
	const evals = 4
	var wg sync.WaitGroup
	results := make([]Metrics, evals)
	errs := make([]error, evals)
	for g := 0; g < evals; g++ {
		net, err := base.Clone()
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(net, 3)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, ev *Evaluator) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				m, err := ev.EvalSet(samples, 0)
				if err != nil {
					errs[g] = err
					return
				}
				results[g] = m
			}
		}(g, ev)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("evaluator %d: %v", g, err)
		}
	}
	want, err := EvalSet(base, samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	for g, m := range results {
		if m != want {
			t.Fatalf("evaluator %d: metrics %+v != serial %+v", g, m, want)
		}
	}
}

// randToyInput builds a deterministic random tensor for shape tests.
func randToyInput(c, h, w int, seed int64) *tensor.Tensor {
	x := tensor.New(c, h, w)
	rng := newTestRNG(seed)
	for i := range x.Data() {
		x.Data()[i] = rng()
	}
	return x
}

// newTestRNG returns a tiny deterministic float generator (xorshift-based)
// so shape-test inputs don't depend on math/rand stream coupling.
func newTestRNG(seed int64) func() float64 {
	s := uint64(seed)*0x9e3779b97f4a7c15 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000)-1000) / 500.0
	}
}
