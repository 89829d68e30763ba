package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hotspot/internal/active"
	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/nn"
	"hotspot/internal/nn/fused"
	"hotspot/internal/tensor"
	"hotspot/internal/train"
)

// This file holds the per-layer replays: each feeds a workload's own
// inputs through one layer's public functions at a time, times every
// call, and checks that the chain reproduces the workload's output bit for
// bit — so a per-layer number is never taken on a path that computes
// something else.

var featureCfg = feature.DefaultTensorConfig()

// paperNet is the seeded, He-initialised Table-1 network. Its weights are
// dense like a trained model's, so the fused engine runs its dense
// kernels.
func paperNet(seed int64) (*nn.Network, error) {
	cfg := nn.DefaultPaperNetConfig()
	cfg.Seed = seed
	return nn.NewPaperNet(cfg)
}

// softmaxHot is the hotspot probability of a logit pair, computed by
// nn.Softmax (the layered path's own definition).
func softmaxHot(logits []float64) (float64, error) {
	p, err := nn.Softmax(tensor.MustFromSlice(append([]float64(nil), logits...), len(logits)))
	if err != nil {
		return 0, err
	}
	return p.Data()[1], nil
}

func us(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(max(n, 1)) }

// fusedStages are the Table-1 stages compiled alone, as [from, to) layer
// ranges of nn.NewPaperNet's stack (conv+ReLU, conv+ReLU+pool, …, fc2).
var fusedStages = []struct {
	name     string
	from, to int
}{
	{"conv1-1", 0, 2}, {"conv1-2_pool", 2, 5}, {"conv2-1", 5, 7}, {"conv2-2_pool", 7, 10}, {"fc1", 10, 13}, {"fc2", 13, 14},
}

// replayInference replays clips[i] (scored on window cores[i]) through
// feature.ExtractCoreImage → feature.ExtractTensorFromImage →
// BlockEncoder.EncodeInto → Evaluator.PredictProbs → fused.Compile'd
// engines (whole net and per stage). want[i] is the workload's output for
// the clip; nil means the evaluator's probabilities are the reference
// (then wantX, when set, pins the tensors).
func replayInference(net *nn.Network, clips []geom.Clip, cores []geom.Rect, want []float64, wantX []*tensor.Tensor, layers map[string]float64) error {
	n := len(clips)
	xs := make([]*tensor.Tensor, n)
	var rasterT, dctT, encT time.Duration
	blocks := 0
	for i, c := range clips {
		start := time.Now()
		im, err := feature.ExtractCoreImage(c, cores[i], featureCfg)
		if err != nil {
			return err
		}
		rasterT += time.Since(start)
		start = time.Now()
		x, err := feature.ExtractTensorFromImage(im, featureCfg)
		if err != nil {
			return err
		}
		dctT += time.Since(start)
		xs[i] = x
		if wantX != nil && checksum(x.Data()) != checksum(wantX[i].Data()) {
			return fmt.Errorf("replay: clip %d tensor differs from the workload's", i)
		}

		// Block encoder, block by block, against the tensor's channels.
		bpx := im.W / featureCfg.Blocks
		enc, err := featureCfg.NewBlockEncoder(bpx)
		if err != nil {
			return err
		}
		block := make([]float64, bpx*bpx)
		vec := make([]float64, featureCfg.K)
		for by := 0; by < featureCfg.Blocks; by++ {
			for bx := 0; bx < featureCfg.Blocks; bx++ {
				for y := 0; y < bpx; y++ {
					row := (by*bpx + y) * im.W
					copy(block[y*bpx:(y+1)*bpx], im.Pix[row+bx*bpx:row+bx*bpx+bpx])
				}
				start = time.Now()
				if err := enc.EncodeInto(vec, block); err != nil {
					return err
				}
				encT += time.Since(start)
				blocks++
				for k, v := range vec {
					if math.Float64bits(v) != math.Float64bits(x.At(k, by, bx)) {
						return fmt.Errorf("replay: clip %d block (%d,%d) coefficient %d differs", i, bx, by, k)
					}
				}
			}
		}
	}
	layers["feature.raster_us"] = us(rasterT, n)
	layers["feature.dct_us"] = us(dctT, n)
	layers["feature.block_encode_us"] = us(encT, blocks)

	ev, err := train.NewEvaluator(net, 0)
	if err != nil {
		return err
	}
	if _, err := ev.PredictProbs(xs[:1]); err != nil { // compiles the engines
		return err
	}
	start := time.Now()
	probs, err := ev.PredictProbs(xs)
	if err != nil {
		return err
	}
	layers["eval.predict_us_per_clip"] = us(time.Since(start), n)
	if want == nil {
		want = probs
	}
	if err := sameBits("Evaluator.PredictProbs", probs, want); err != nil {
		return err
	}

	shape := []int{featureCfg.K, featureCfg.Blocks, featureCfg.Blocks}
	eng, err := fused.Compile(net, shape)
	if err != nil {
		return err
	}
	got := make([]float64, n)
	var fwdT time.Duration
	for i, x := range xs {
		start := time.Now()
		out, err := eng.Forward(x)
		fwdT += time.Since(start)
		if err != nil {
			return err
		}
		if got[i], err = softmaxHot(out); err != nil {
			return err
		}
	}
	layers["fused.forward_us"] = us(fwdT, n)
	if err := sameBits("fused engine", got, want); err != nil {
		return err
	}

	// One engine per Table-1 stage, chained on the previous stage's output.
	all := net.Layers()
	engines := make([]*fused.Engine, len(fusedStages))
	in := shape
	for s, st := range fusedStages {
		if engines[s], err = fused.Compile(nn.NewNetwork(all[st.from:st.to]...), in); err != nil {
			return fmt.Errorf("replay: compile stage %s: %w", st.name, err)
		}
		in = engines[s].OutShape()
	}
	stageT := make([]time.Duration, len(fusedStages))
	for i, x := range xs {
		cur := x
		var out []float64
		for s, e := range engines {
			start := time.Now()
			out, err = e.Forward(cur)
			stageT[s] += time.Since(start)
			if err != nil {
				return err
			}
			cur = tensor.MustFromSlice(append([]float64(nil), out...), e.OutShape()...)
		}
		if got[i], err = softmaxHot(out); err != nil {
			return err
		}
	}
	for s, st := range fusedStages {
		layers["fused."+st.name+".us"] = us(stageT[s], n)
	}
	return sameBits("per-stage fused engines", got, want)
}

func sameBits(what string, got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("replay: %s gives %v for item %d, the workload %v", what, got[i], i, want[i])
		}
	}
	return nil
}

// timedLayers are the layers whose forward and backward the MGD replay
// reports.
var timedLayers = []string{"conv1-1", "conv1-2", "conv2-1", "conv2-2", "fc1"}

// replayMGD runs the first cfg.MaxIters iterations of train.MGD on a clone
// of net, then replays them serially one layer call at a time (same batch
// draws, dropout seeds and update rule) on another clone, timing every
// layer's Forward and Backward. The two must end with bit-identical
// weights.
func replayMGD(net *nn.Network, set []train.Sample, cfg train.MGDConfig, layers map[string]float64) error {
	if cfg.BalanceClasses || cfg.ValEvery != 0 || cfg.DoubleUpdate {
		return fmt.Errorf("replay: MGD replay covers plain uniform sampling only")
	}
	ref, err := net.Clone()
	if err != nil {
		return err
	}
	if _, err := train.MGD(ref, set, nil, cfg); err != nil {
		return err
	}
	rep, err := net.Clone()
	if err != nil {
		return err
	}
	yn, yh, err := train.Targets(cfg.Eps)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := rep.Params()
	fwd, bwd := map[string]time.Duration{}, map[string]time.Duration{}
	lr := cfg.LearningRate
	idx := make([]int, cfg.BatchSize)
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		for b := range idx {
			idx[b] = rng.Intn(len(set))
		}
		for _, p := range params {
			p.Grad.Zero()
		}
		for b, i := range idx {
			counter := int64(iter-1)*int64(cfg.BatchSize) + int64(b)
			rep.ReseedDropout(int64(mix64(uint64(cfg.Seed), uint64(counter))))
			x := set[i].X
			for _, l := range rep.Layers() {
				start := time.Now()
				if x, err = l.Forward(x, true); err != nil {
					return err
				}
				fwd[l.Name()] += time.Since(start)
			}
			target := yn
			if set[i].Hotspot {
				target = yh
			}
			_, g, err := nn.SoftmaxCrossEntropy(x, target)
			if err != nil {
				return err
			}
			ls := rep.Layers()
			for j := len(ls) - 1; j >= 0; j-- {
				start := time.Now()
				if g, err = ls[j].Backward(g); err != nil {
					return err
				}
				bwd[ls[j].Name()] += time.Since(start)
			}
		}
		scale := lr / float64(cfg.BatchSize)
		for _, p := range params {
			if err := p.W.AddScaled(-scale, p.Grad); err != nil {
				return err
			}
		}
		if iter%cfg.DecayStep == 0 {
			lr *= cfg.DecayFactor
		}
	}
	if a, b := active.WeightChecksum(ref), active.WeightChecksum(rep); a != b {
		return fmt.Errorf("replay: layer-by-layer MGD weights %016x, train.MGD %016x", b, a)
	}
	samples := cfg.MaxIters * cfg.BatchSize
	for _, name := range timedLayers {
		layers["nn."+name+".fwd_us"] = us(fwd[name], samples)
		layers["nn."+name+".bwd_us"] = us(bwd[name], samples)
	}
	return nil
}

// roundSnapshot is the loop state at the start of one active round: the
// weights the round scores with and the pool indices still unlabeled.
type roundSnapshot struct {
	weights   []float64 // every parameter, in Params order
	unlabeled []int
}

// replaySelection re-scores round r's unlabeled pool with the snapshot
// weights loaded into a copy of arch and re-runs active.SelectHybrid with the loop's round key; the
// selection must equal the round report's.
func replaySelection(arch *nn.Network, pool *active.Pool, cfg active.Config, snaps []roundSnapshot, reports []active.RoundReport) error {
	if len(snaps) != len(reports) {
		return fmt.Errorf("replay: %d round snapshots for %d rounds", len(snaps), len(reports))
	}
	net, err := arch.Clone()
	if err != nil {
		return err
	}
	for r, s := range snaps {
		w := s.weights
		for _, p := range net.Params() {
			w = w[copy(p.W.Data(), w):]
		}
		ev, err := train.NewEvaluator(net, cfg.Workers)
		if err != nil {
			return err
		}
		xs := make([]*tensor.Tensor, len(s.unlabeled))
		for j, pi := range s.unlabeled {
			xs[j] = pool.Tensors[pi]
		}
		probs, err := ev.PredictProbs(xs)
		if err != nil {
			return err
		}
		sel, err := active.SelectHybrid(pool.Tensors, probs, s.unlabeled, cfg.Batch, cfg.Candidates, mix64(uint64(cfg.Seed), uint64(r)), cfg.Workers)
		if err != nil {
			return err
		}
		if fmt.Sprint(sel) != fmt.Sprint(reports[r].Selected) {
			return fmt.Errorf("replay: round %d selection %v, loop selected %v", r, sel, reports[r].Selected)
		}
	}
	return nil
}
