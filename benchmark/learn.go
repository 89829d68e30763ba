package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hotspot/internal/active"
	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/litho"
	"hotspot/internal/nn"
	"hotspot/internal/obs"
	"hotspot/internal/parallel"
	"hotspot/internal/train"
)

// learnStyle is the suite style: Industry3's ~33% hotspot rate gives a
// small suite both classes.
var learnStyle = layout.StyleIndustry3()

// learnRig is a litho-labelled training suite, an unlabeled clip pool with
// its cached tensors, the litho labeler and a fresh paper net.
type learnRig struct {
	net      *nn.Network
	trainSet []train.Sample
	evalSet  []train.Sample
	pool     *active.Pool
	labeler  *layout.Labeler
}

// learnSize fixes one run's amount of work.
type learnSize struct {
	suite, eval           int // litho-labelled clips; the last eval are held out
	pool                  int
	mgdIters, mgdBatch    int
	rounds, batch, tuneIt int
}

func sizeLearn(c *config) learnSize {
	if c.tiny {
		return learnSize{suite: 8, eval: 2, pool: 12,
			mgdIters: 2, mgdBatch: 8, rounds: 3, batch: 2, tuneIt: 2}
	}
	// The pool outlasts the rounds (rounds × batch labels), so every run
	// holds all of its rounds.
	return learnSize{suite: 24, eval: 4, pool: 8 * c.seconds,
		mgdIters: 5 * c.seconds, mgdBatch: 32, rounds: 3*c.seconds + 1, batch: 2, tuneIt: 4}
}

// newLearnRig builds the suite from a fixed number of seeded clips, each
// labelled by the litho oracle, so set-up does the same work for every
// seed (layout.BuildSuite draws until class quotas fill, which takes a
// seed-dependent number of labels).
func newLearnRig(seed int64, sz learnSize) (*learnRig, error) {
	r := &learnRig{}
	var err error
	if r.labeler, err = layout.NewLabeler(learnStyle, litho.DefaultConfig()); err != nil {
		return nil, err
	}
	suite := make([]geom.Clip, sz.suite)
	for i := range suite {
		suite[i] = layout.Generate(learnStyle, rand.New(rand.NewSource(subSeed(seed, streamSuite, i))))
	}
	hot, err := parallel.Map(parallel.New(0), len(suite), func(_, i int) (bool, error) {
		rep, err := r.labeler.Label(suite[i])
		return rep.Hotspot, err
	})
	if err != nil {
		return nil, err
	}
	xs, err := feature.ExtractTensors(suite, learnStyle.CoreRect(), featureCfg, 0)
	if err != nil {
		return nil, err
	}
	all := make([]train.Sample, len(xs))
	for i, x := range xs {
		all[i] = train.Sample{X: x, Hotspot: hot[i]}
	}
	r.trainSet, r.evalSet = all[:sz.suite-sz.eval], all[sz.suite-sz.eval:]
	clips := make([]geom.Clip, sz.pool)
	for i := range clips {
		clips[i] = layout.Generate(learnStyle, rand.New(rand.NewSource(subSeed(seed, streamPool, i))))
	}
	if r.pool, err = active.NewPool(clips, learnStyle.CoreRect(), featureCfg, 0); err != nil {
		return nil, err
	}
	r.net, err = paperNet(seed)
	return r, err
}

func mgdConfig(seed int64, sz learnSize) train.MGDConfig {
	return train.MGDConfig{LearningRate: 0.01, DecayFactor: 0.5, DecayStep: 1000,
		BatchSize: sz.mgdBatch, MaxIters: sz.mgdIters, Seed: seed}
}

// loopConfig is active.DefaultTune with its MGD shortened to sz.tuneIt
// iterations, so one run holds many rounds.
func loopConfig(seed int64, sz learnSize) active.Config {
	tune := active.DefaultTune()
	tune.Initial.MaxIters = sz.tuneIt
	return active.Config{Rounds: sz.rounds, Batch: sz.batch, Seed: seed, Tune: tune}
}

// learnMeasure is what one learn phase measured.
type learnMeasure struct {
	mgdS     float64   // the train.MGD call
	roundMS  []float64 // round periods: first label of round r to first label of r+1
	loopS    float64
	reports  []active.RoundReport
	snaps    []roundSnapshot
	labelMS  []float64
	net      *nn.Network
	stepMS   float64
	scoreMS  float64
	selectMS float64
	tuneS    float64
}

// stageDelta reads a public obs stage summary's count and sum, so a phase
// can take the mean of the observations it caused.
type stageDelta struct {
	s    *obs.Summary
	n0   int64
	sum0 float64
}

func watchStage(name string) stageDelta {
	s := obs.Default().Stage(name)
	return stageDelta{s: s, n0: s.Count(), sum0: s.Sum()}
}

func (d stageDelta) mean() float64 {
	n := d.s.Count() - d.n0
	if n == 0 {
		return 0
	}
	return (d.s.Sum() - d.sum0) / float64(n)
}

// learnPhase trains a clone of the rig's net with MGD, then runs the
// active loop on it. The labeler records each round's starting weights
// and unlabeled set for the selection replay (a weight copy per round,
// well under 1% of a round).
func learnPhase(rig *learnRig, seed int64, sz learnSize, tr *tracer, root span) (*learnMeasure, error) {
	m := &learnMeasure{}
	s := tr.start("nn.Network.Clone", root)
	net0, err := rig.net.Clone()
	s.end()
	if err != nil {
		return nil, err
	}
	m.net = net0
	step := watchStage("train/step")
	s = tr.start("train.MGD", root)
	start := time.Now()
	if _, err := train.MGD(net0, rig.trainSet, nil, mgdConfig(seed, sz)); err != nil {
		return nil, err
	}
	m.mgdS = time.Since(start).Seconds()
	s.end()
	m.stepMS = step.mean() * 1e3

	cfg := loopConfig(seed, sz)
	calls := 0
	var firstLabel []time.Time
	labeled := map[int]bool{}
	var run span
	label := func(i int, c geom.Clip) (bool, error) {
		// The budget is unlimited and the pool outlasts the rounds, so
		// every round labels exactly cfg.Batch clips: every Batch-th call
		// opens a round.
		if calls%cfg.Batch == 0 {
			firstLabel = append(firstLabel, time.Now())
			sp := tr.start("benchmark.snapshot", run)
			var snap []float64
			for _, p := range net0.Params() {
				snap = append(snap, p.W.Data()...)
			}
			var unl []int
			for pi := range rig.pool.Clips {
				if !labeled[pi] {
					unl = append(unl, pi)
				}
			}
			m.snaps = append(m.snaps, roundSnapshot{weights: snap, unlabeled: unl})
			sp.end()
		}
		calls++
		sp := tr.start("litho.Label", run)
		t0 := time.Now()
		rep, err := rig.labeler.Label(c)
		m.labelMS = append(m.labelMS, ms(time.Since(t0)))
		sp.end()
		labeled[i] = true
		return rep.Hotspot, err
	}
	s = tr.start("active.NewLoop", root)
	loop, err := active.NewLoop(cfg, net0, rig.pool, label, rig.evalSet)
	s.end()
	if err != nil {
		return nil, err
	}
	score, sel, tune := watchStage("active/score"), watchStage("active/select"), watchStage("active/tune")
	run = tr.start("active.Loop.Run", root)
	start = time.Now()
	m.reports, err = loop.Run()
	end := time.Now()
	run.end()
	if err != nil {
		return nil, err
	}
	m.loopS = end.Sub(start).Seconds()
	for r := 1; r < len(firstLabel); r++ {
		m.roundMS = append(m.roundMS, ms(firstLabel[r].Sub(firstLabel[r-1])))
	}
	m.scoreMS, m.selectMS, m.tuneS = score.mean()*1e3, sel.mean()*1e3, tune.mean()
	return m, nil
}

func runLearn(c *config) (*outcome, error) {
	sz := sizeLearn(c)
	rig, setupS, err := repeatSetup(c.setups(5), func() (*learnRig, error) { return newLearnRig(c.seed, sz) }, func(*learnRig) {})
	if err != nil {
		return nil, err
	}

	// Gates: MGD reproduced layer by layer, and a two-round loop whose
	// selections the replay reproduces.
	gateLayers := map[string]float64{}
	gcfg := mgdConfig(c.seed, sz)
	gcfg.MaxIters = 2
	if err := replayMGD(rig.net, rig.trainSet, gcfg, gateLayers); err != nil {
		return nil, gatef("%v", err)
	}
	gsz := sz
	gsz.mgdIters, gsz.rounds = 1, 2
	g, err := learnPhase(rig, c.seed, gsz, nil, span{})
	if err != nil {
		return nil, err
	}
	if err := replaySelection(rig.net, rig.pool, loopConfig(c.seed, gsz), g.snaps, g.reports); err != nil {
		return nil, gatef("%v", err)
	}

	o := &outcome{
		names:     opNames{p50: "active_round_s", tail: "active_round_tail_s", latUnit: "s", latScale: 1e-3, work: "train_samples_per_s", workUnit: "samples/s"},
		setupS:    setupS,
		checksums: map[string]string{},
	}
	runtime.GC() // the measured phase starts from a collected heap
	m, err := learnPhase(rig, c.seed, sz, nil, span{})
	if err != nil {
		return nil, err
	}
	o.rssMB = peakRSSMB()
	o.phases = append(o.phases, counts{Phase: "mgd", Sent: 1, Succeeded: 1},
		counts{Phase: "active", Sent: len(m.reports), Succeeded: len(m.reports)},
		counts{Phase: "litho", Sent: len(m.labelMS), Succeeded: len(m.labelMS)})
	o.latencyMS = m.roundMS
	o.work, o.workS, o.workNote = float64(sz.mgdIters*sz.mgdBatch), m.mgdS, "samples through one train.MGD call over its time"
	o.busyS = m.mgdS + m.loopS
	o.checksums["weights"] = fmt.Sprintf("%016x", active.WeightChecksum(m.net))
	o.checksums["selected"] = checksum(selectedFloats(m.reports))
	if err := replaySelection(rig.net, rig.pool, loopConfig(c.seed, sz), m.snaps, m.reports); err != nil {
		o.wrong = append(o.wrong, err.Error())
	}
	o.extra = append(o.extra, fmt.Sprintf("active_loop_s = %.6g s (%d rounds)", m.loopS, len(m.reports)))
	if !c.trace {
		return o, nil
	}

	var m2 *learnMeasure
	err = o.traced(c, "learn", func(tr *tracer, root span) (int, error) {
		m2, err = learnPhase(rig, c.seed, sz, tr, root)
		if err != nil {
			return 0, err
		}
		return sz.mgdIters + len(m2.reports), nil
	})
	if err != nil {
		return nil, err
	}
	o.phases = append(o.phases, counts{Phase: "traced", Sent: len(m2.reports), Succeeded: len(m2.reports)})
	o.tracedBusyS = m2.mgdS + m2.loopS
	if w1, w2 := active.WeightChecksum(m.net), active.WeightChecksum(m2.net); w1 != w2 {
		o.wrong = append(o.wrong, fmt.Sprintf("traced run weights %016x, untraced %016x", w2, w1))
	}
	if err := replaySelection(rig.net, rig.pool, loopConfig(c.seed, sz), m2.snaps, m2.reports); err != nil {
		o.wrong = append(o.wrong, err.Error())
	}
	o.layers["train.step_ms"] = m2.stepMS
	o.layers["active.score_ms"] = m2.scoreMS
	o.layers["active.select_ms"] = m2.selectMS
	o.layers["active.tune_s"] = m2.tuneS
	o.layers["litho.label_ms_p50"] = median(m2.labelMS)
	o.layers["litho.labels"] = float64(len(m2.labelMS))
	rcfg := mgdConfig(c.seed, sz)
	rcfg.MaxIters = min(rcfg.MaxIters, 4)
	if err := replayMGD(rig.net, rig.trainSet, rcfg, o.layers); err != nil {
		o.wrong = append(o.wrong, err.Error())
	}
	k := min(len(rig.pool.Clips), replayClips(c))
	cores := make([]geom.Rect, k)
	for i := range cores {
		cores[i] = learnStyle.CoreRect()
	}
	if err := replayInference(m2.net, rig.pool.Clips[:k], cores, nil, rig.pool.Tensors[:k], o.layers); err != nil {
		o.wrong = append(o.wrong, err.Error())
	}
	return o, nil
}

func selectedFloats(reports []active.RoundReport) []float64 {
	var out []float64
	for _, r := range reports {
		for _, i := range r.Selected {
			out = append(out, float64(i))
		}
	}
	return out
}
