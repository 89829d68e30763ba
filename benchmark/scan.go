package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/scan"
	"hotspot/internal/train"
)

// scanRig is a generated die and a scanner over it.
type scanRig struct {
	die  geom.Clip
	sc   *scan.Scanner
	cold *scan.Result // the first cold scan (newScanRig only)
}

// newScanRig is die-scan's set-up: everything before the scanner can
// answer a Rescan, which is GenerateDie, scan.New and the first cold Scan
// that fills the block-plane cache.
func newScanRig(seed int64, cells int) (*scanRig, error) {
	die, err := layout.GenerateDie(layout.DieConfig{CellsX: cells, CellsY: cells, Seed: subSeed(seed, streamDie, 0)})
	if err != nil {
		return nil, err
	}
	rig, err := newScanner(seed, die)
	if err != nil {
		return nil, err
	}
	rig.cold, err = rig.sc.Scan()
	return rig, err
}

func newScanner(seed int64, die geom.Clip) (*scanRig, error) {
	net0, err := paperNet(seed)
	if err != nil {
		return nil, err
	}
	sc, err := scan.New(scan.DefaultConfig(), net0, die)
	if err != nil {
		return nil, err
	}
	return &scanRig{die: die, sc: sc}, nil
}

// dieEdits is the seeded edit sequence: 400–1200 nm regions anywhere on
// the die, cleared and redrawn with one to three wires. The region sides
// are spread evenly over 400–1200 nm and dealt in a seeded order, so every
// seed edits the same sizes and the rescan tail does not hang on how many
// large edits a seed happened to draw.
func dieEdits(seed int64, frame geom.Rect, n int) []layout.Edit {
	rng := rand.New(rand.NewSource(subSeed(seed, streamEdits, 0)))
	snap := func(v int) int { return v / 8 * 8 }
	order := rng.Perm(n)
	edits := make([]layout.Edit, n)
	for i := range edits {
		side := snap(400 + order[i]*801/n)
		x0 := frame.X0 + snap(rng.Intn(frame.W()-side+1))
		y0 := frame.Y0 + snap(rng.Intn(frame.H()-side+1))
		region := geom.R(x0, y0, x0+side, y0+side)
		var rects []geom.Rect
		for k := 1 + rng.Intn(3); k > 0; k-- {
			w := snap(48 + rng.Intn(73))
			at := snap(rng.Intn(side - w))
			lo := snap(rng.Intn(side / 2))
			hi := side/2 + snap(rng.Intn(side/2))
			if rng.Intn(2) == 0 {
				rects = append(rects, geom.R(x0+at, y0+lo, x0+at+w, y0+hi))
			} else {
				rects = append(rects, geom.R(x0+lo, y0+at, x0+hi, y0+at+w))
			}
		}
		edits[i] = layout.Edit{Region: region, Rects: rects}
	}
	return edits
}

// windowClip cuts window rect out of the die as its own clip. Rasterized
// pixels are per-pixel local, so the cut-out rasterizes exactly like the
// die under the window.
func windowClip(die geom.Clip, rect geom.Rect) geom.Clip { return geom.NewClip(rect, die.Rects) }

// sampleWindows picks n seeded window indices of a wnx×wny grid.
func sampleWindows(seed int64, wnx, wny, n int) []int {
	rng := rand.New(rand.NewSource(subSeed(seed, streamDie, 1)))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(wnx * wny)
	}
	return idx
}

// rectsSum fingerprints a rectangle sequence, order included.
func rectsSum(rs []geom.Rect) string {
	xs := make([]float64, 0, 4*len(rs))
	for _, r := range rs {
		xs = append(xs, float64(r.X0), float64(r.Y0), float64(r.X1), float64(r.Y1))
	}
	return checksum(xs)
}

// sameHeat compares two heat maps bit for bit.
func sameHeat(a, b []float64) bool { return len(a) == len(b) && checksum(a) == checksum(b) }

func runDieScan(c *config) (*outcome, error) {
	cells, colds, edits, gateEdits, sampled := 6, 6, 8*c.seconds, 4, 16
	if c.tiny {
		cells, colds, edits, gateEdits, sampled = 2, 1, 4, 2, 4
	}
	rig, setupS, err := repeatSetup(c.setups(5), func() (*scanRig, error) { return newScanRig(c.seed, cells) }, func(*scanRig) {})
	if err != nil {
		return nil, err
	}
	seq := dieEdits(c.seed, rig.die.Frame, edits)

	// Gate 1: the set-up's cold heat map against feature.ExtractTensor +
	// Evaluator.PredictOn on seeded windows.
	cold := rig.cold
	net0, err := paperNet(c.seed)
	if err != nil {
		return nil, err
	}
	if err := gateWindows(net0, rig, cold.Probs, sampleWindows(c.seed, cold.WindowsX, cold.WindowsY, sampled)); err != nil {
		return nil, err
	}
	wnx, wny := rig.sc.Windows()
	// Gate 2: after a prefix of the edits on a second scanner, the
	// rescanned heat map equals a cold scan of the edited die.
	gate, err := newScanRig(c.seed, cells)
	if err != nil {
		return nil, err
	}
	var last *scan.Result
	for _, e := range seq[:min(gateEdits, len(seq))] {
		if last, err = gate.sc.Rescan(e); err != nil {
			return nil, err
		}
	}
	fresh, err := newScanner(c.seed, gate.sc.Die())
	if err != nil {
		return nil, err
	}
	want, err := fresh.sc.Scan()
	if err != nil {
		return nil, err
	}
	if !sameHeat(last.Probs, want.Probs) {
		return nil, gatef("heat map after %d rescans differs from a cold scan of the edited die", gateEdits)
	}

	o := &outcome{
		names:     opNames{p50: "rescan_p50_ms", tail: "rescan_tail_ms", latUnit: "ms", latScale: 1, work: "scan_windows_per_s", workUnit: "windows/s"},
		setupS:    setupS,
		checksums: map[string]string{"cold_heat_map": checksum(cold.Probs)},
	}
	runtime.GC() // the measured phase starts from a collected heap
	m, err := scanPhase(c, rig, seq, colds, cold.Probs, o, "measure", nil, span{})
	if err != nil {
		return nil, err
	}
	o.latencyMS = m.rescanMS
	o.rssMB = m.rssMB
	o.work, o.workS, o.workNote = float64(colds*len(cold.Probs)), sum(m.coldS), fmt.Sprintf("windows of %d cold scans over their summed time", colds)
	o.busyS = sum(m.coldS) + sum(m.rescanMS)/1e3
	o.checksums["edited_heat_map"] = checksum(m.final.Probs)
	o.extra = append(o.extra, fmt.Sprintf("scan_cold_s = %.6g s (median of %d cold scans, %d windows; each: %.4g)", median(m.coldS), len(m.coldS), len(cold.Probs), m.coldS))
	if !c.trace {
		return o, nil
	}

	rig2, err := newScanner(c.seed, rig.die)
	if err != nil {
		return nil, err
	}
	var m2 *scanMeasure
	err = o.traced(c, "die-scan", func(tr *tracer, root span) (int, error) {
		m2, err = scanPhase(c, rig2, seq, colds, cold.Probs, o, "traced", tr, root)
		return colds + len(seq), err
	})
	if err != nil {
		return nil, err
	}
	o.tracedBusyS = sum(m2.coldS) + sum(m2.rescanMS)/1e3
	o.layers["scan.cold_s"] = median(m2.coldS)
	o.layers["scan.block_dcts"] = float64(m2.coldStats.BlockDCTs)
	o.layers["scan.block_gathers"] = float64(m2.coldStats.BlockGathers)
	o.layers["scan.cache_hit_rate"] = m2.coldStats.CacheHitRate
	o.layers["scan.rescan_windows_mean"] = mean(m2.rescanWindows)
	o.layers["scan.rescan_dirty_blocks_mean"] = mean(m2.rescanDirty)
	o.layers["layout.apply_edit_us"] = mean(m2.applyEditUS)
	idx := sampleWindows(c.seed, wnx, wny, replayClips(c))
	clips := make([]geom.Clip, len(idx))
	cores := make([]geom.Rect, len(idx))
	wantP := make([]float64, len(idx))
	for i, w := range idx {
		cores[i] = rig.sc.WindowRect(w%wnx, w/wnx)
		clips[i], wantP[i] = windowClip(rig.die, cores[i]), cold.Probs[w]
	}
	if err := replayInference(net0, clips, cores, wantP, nil, o.layers); err != nil {
		o.wrong = append(o.wrong, err.Error())
	}
	return o, nil
}

// gateWindows checks heat-map entries probs[w] for the sampled windows
// against feature.ExtractTensor + Evaluator.PredictOn on each window cut
// out of the die.
func gateWindows(net0 *nn.Network, rig *scanRig, probs []float64, windows []int) error {
	ev, err := train.NewEvaluator(net0, 1)
	if err != nil {
		return err
	}
	if err := ev.Prepare([]int{featureCfg.K, featureCfg.Blocks, featureCfg.Blocks}); err != nil {
		return err
	}
	wnx, _ := rig.sc.Windows()
	for _, w := range windows {
		rect := rig.sc.WindowRect(w%wnx, w/wnx)
		x, err := feature.ExtractTensor(windowClip(rig.sc.Die(), rect), rect, featureCfg)
		if err != nil {
			return err
		}
		p, err := ev.PredictOn(0, x)
		if err != nil {
			return err
		}
		if !sameProb(p, probs[w]) {
			return gatef("window %d: heat map %v, per-clip reference %v", w, probs[w], p)
		}
	}
	return nil
}

// scanMeasure is what one scan phase measured.
type scanMeasure struct {
	coldS, rescanMS            []float64
	rescanWindows, rescanDirty []float64
	applyEditUS                []float64
	coldStats                  scan.Stats
	final                      *scan.Result
	rssMB                      float64 // peak RSS before the output check
}

// scanPhase times `colds` cold scans and then the edit sequence, each edit
// followed by Rescan. Traced, each edit is first replayed through
// layout.ApplyEdit on the benchmark's own copy of the die, which must
// match the scanner's edited die. Afterwards the rescanned heat map must
// equal a cold scan of the edited die.
func scanPhase(c *config, rig *scanRig, seq []layout.Edit, colds int, coldWant []float64, o *outcome, phase string, tr *tracer, root span) (*scanMeasure, error) {
	m := &scanMeasure{}
	cnt := counts{Phase: phase}
	for k := 0; k < colds; k++ {
		s := tr.start("scan.Scan", root)
		start := time.Now()
		res, err := rig.sc.Scan()
		m.coldS = append(m.coldS, time.Since(start).Seconds())
		s.end()
		cnt.add(err == nil, false)
		if err != nil {
			return nil, err
		}
		check := tr.start("benchmark.check", root)
		if !sameHeat(res.Probs, coldWant) {
			o.wrong = append(o.wrong, fmt.Sprintf("%s: cold scan %d heat map differs from the gated one", phase, k))
		}
		check.end()
		m.coldStats = res.Stats
	}
	die := rig.die
	for _, e := range seq {
		if tr != nil {
			s := tr.start("layout.ApplyEdit", root)
			start := time.Now()
			next, _, err := layout.ApplyEdit(die, e)
			m.applyEditUS = append(m.applyEditUS, float64(time.Since(start).Nanoseconds())/1e3)
			s.end()
			if err != nil {
				return nil, err
			}
			die = next
		}
		s := tr.start("scan.Rescan", root)
		start := time.Now()
		res, err := rig.sc.Rescan(e)
		m.rescanMS = append(m.rescanMS, ms(time.Since(start)))
		s.end()
		cnt.add(err == nil, false)
		if err != nil {
			return nil, err
		}
		m.rescanWindows = append(m.rescanWindows, float64(res.Stats.Windows))
		m.rescanDirty = append(m.rescanDirty, float64(res.Stats.DirtyBlocks))
		m.final = res
		if tr != nil {
			s := tr.start("benchmark.check", root)
			if rectsSum(die.Rects) != rectsSum(rig.sc.Die().Rects) {
				o.wrong = append(o.wrong, fmt.Sprintf("%s: layout.ApplyEdit replay disagrees with the scanner's edited die", phase))
			}
			s.end()
		}
	}
	check := tr.start("benchmark.check", root)
	defer check.end()
	o.phases = append(o.phases, cnt)
	m.rssMB = peakRSSMB()
	if m.final == nil {
		return m, nil
	}
	fresh, err := newScanner(c.seed, rig.sc.Die())
	if err != nil {
		return nil, err
	}
	want, err := fresh.sc.Scan()
	if err != nil {
		return nil, err
	}
	if !sameHeat(m.final.Probs, want.Probs) {
		o.wrong = append(o.wrong, fmt.Sprintf("%s: heat map after %d rescans differs from a cold scan of the edited die", phase, len(seq)))
	}
	return m, nil
}
