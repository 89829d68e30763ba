// Package scan is the full-layout streaming scan engine: it strides the
// trained detector across an entire die (millions of overlapping windows
// on real designs) instead of classifying isolated clips.
//
// The core optimization is stride quantization to the DCT block grid.
// The paper's feature tensor divides a window into Blocks×Blocks pixel
// blocks and keeps K zig-zag-truncated DCT coefficients per block; with
// the window stride fixed to one block, every block of the die is covered
// by up to Blocks² overlapping windows that all need exactly the same
// coefficient vector for it. A naive scanner re-rasterizes and
// re-transforms each window — recomputing each block DCT up to Blocks²
// (144) times — while this engine computes every block DCT exactly once
// per die into a block-plane cache and assembles each window's feature
// tensor by gathering cached vectors.
//
// The two passes run on the shared worker-pool substrate under its
// standing determinism contract: the extract pass shards the die into
// tiles whose blocks land in disjoint, index-addressed cache slots; the
// score pass fans window rows across evaluator replicas into
// index-addressed probability slots. Windows near tile boundaries gather
// blocks owned by neighbouring tiles — halo reads into the shared cache,
// never halo recomputation, which is what keeps "exactly once" true.
// Results are bit-identical under any worker count, and bit-identical to
// the per-clip path (feature.ExtractTensor + train.Evaluator) on every
// window: both paths run the same feature.BlockEncoder kernel and the
// same fused inference engines.
//
// After a layout edit, Rescan invalidates only the blocks the edit
// touches and rescores only the windows that gather a dirty block,
// producing bit-for-bit the heat map a cold scan of the edited die would.
package scan

import (
	"fmt"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/nn"
	"hotspot/internal/obs"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/raster"
	"hotspot/internal/tensor"
	"hotspot/internal/train"
)

// Config parameterizes a scanner.
type Config struct {
	// Feature is the tensor extraction configuration; it must match the
	// configuration the model was trained with.
	Feature feature.TensorConfig
	// WindowNM is the scan window side in nanometres (the detector's clip
	// size; the paper uses 1200). The scan stride is WindowNM/Blocks — one
	// DCT block — in both axes.
	WindowNM int
	// TileBlocks is the tile side in blocks for the extract-pass fan-out;
	// 0 means 16.
	TileBlocks int
	// Workers bounds both passes' parallelism; 0 means parallel.Default().
	Workers int
	// Shift is the decision-boundary shift of train.Decide: a window is
	// hot when prob > 0.5 − Shift.
	Shift float64
	// Tracer, when non-nil, records one trace tree per (re)scan pass:
	// extract/infer/regions spans with per-tile and per-window-row child
	// spans and cache-attribution attributes. Observation only — the heat
	// map is bit-identical with tracing lit or dark. Nil is free.
	Tracer *trace.Tracer
}

// DefaultConfig mirrors the paper's clip geometry: 1200 nm windows under
// the default feature tensor configuration.
func DefaultConfig() Config {
	return Config{Feature: feature.DefaultTensorConfig(), WindowNM: 1200, TileBlocks: 16}
}

// Stats describes the work one pass performed.
type Stats struct {
	// BlockDCTs is the number of block transforms computed this pass.
	BlockDCTs int `json:"block_dcts"`
	// BlockGathers is the number of coefficient vectors served from the
	// cache while assembling window tensors (Blocks² per scored window).
	BlockGathers int64 `json:"block_gathers"`
	// Windows is the number of windows (re)scored this pass.
	Windows int `json:"windows"`
	// DirtyBlocks is the number of invalidated blocks (rescan only).
	DirtyBlocks int `json:"dirty_blocks"`
	// CacheHitRate is BlockGathers/(BlockGathers+BlockDCTs): the fraction
	// of block-coefficient demands served without a transform.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Region is one merged run of hot windows: a region proposal.
type Region struct {
	// Rect is the union bounding box of the member windows, in die
	// coordinates (nm).
	Rect geom.Rect `json:"rect"`
	// Windows is the number of hot windows merged into the region.
	Windows int `json:"windows"`
	// MaxProb is the highest hotspot probability inside the region.
	MaxProb float64 `json:"max_prob"`
}

// Result is one pass' output: the heat map and its derived proposals.
type Result struct {
	// WindowsX, WindowsY give the window grid; window (wx, wy) sits at
	// die offset (wx, wy) blocks.
	WindowsX, WindowsY int
	// Probs is the row-major [WindowsY][WindowsX] hotspot heat map.
	Probs []float64
	// Hot marks windows past the decision boundary.
	Hot []bool
	// Regions are the merged hot-window proposals, in first-hot-window
	// scan order.
	Regions []Region
	// Stats describes the pass' work.
	Stats Stats
}

// HotWindows counts the hot windows in the heat map.
func (r *Result) HotWindows() int {
	n := 0
	for _, h := range r.Hot {
		if h {
			n++
		}
	}
	return n
}

// workerState is one worker's scratch: a block encoder with its pixel
// buffer and the assembled feature tensor fed to that worker's inference
// replica. Every field is fully overwritten per item, so reuse across
// items cannot leak state between them.
type workerState struct {
	enc   *feature.BlockEncoder
	block []float64
	x     *tensor.Tensor
}

// Scanner scans one die. It owns the block-plane cache and the last heat
// map, which is what makes incremental re-scan possible. Not safe for
// concurrent use; build with New.
type Scanner struct {
	cfg  Config
	die  geom.Clip
	ev   *train.Evaluator
	pool *parallel.Pool

	blockPx, blockNM int
	n, k             int // window side in blocks, coefficients per block
	nbx, nby         int // die block grid
	wnx, wny         int // window grid
	tileBlocks       int

	planes  []float64 // [nby][nbx][k] cached block coefficient vectors
	probs   []float64 // [wny][wnx] last heat map
	scanned bool

	workers []*workerState
}

// New builds a scanner for the die with the given trained network. The
// die frame must divide evenly into DCT blocks and hold at least one
// window.
func New(cfg Config, net *nn.Network, die geom.Clip) (*Scanner, error) {
	if cfg.WindowNM <= 0 {
		return nil, fmt.Errorf("scan: window side must be positive, got %d", cfg.WindowNM)
	}
	blockPx, err := cfg.Feature.BlockPx(cfg.WindowNM)
	if err != nil {
		return nil, err
	}
	blockNM := blockPx * cfg.Feature.ResNM
	if die.Frame.Empty() {
		return nil, fmt.Errorf("scan: empty die frame %v", die.Frame)
	}
	if die.Frame.W()%blockNM != 0 || die.Frame.H()%blockNM != 0 {
		return nil, fmt.Errorf("scan: die %dx%d nm not divisible into %d nm blocks", die.Frame.W(), die.Frame.H(), blockNM)
	}
	n, k := cfg.Feature.Blocks, cfg.Feature.K
	nbx, nby := die.Frame.W()/blockNM, die.Frame.H()/blockNM
	if nbx < n || nby < n {
		return nil, fmt.Errorf("scan: die of %dx%d blocks smaller than the %d-block window", nbx, nby, n)
	}
	tb := cfg.TileBlocks
	if tb <= 0 {
		tb = 16
	}
	ev, err := train.NewEvaluator(net, cfg.Workers)
	if err != nil {
		return nil, err
	}
	s := &Scanner{
		cfg: cfg, die: die, ev: ev, pool: parallel.New(cfg.Workers),
		blockPx: blockPx, blockNM: blockNM,
		n: n, k: k, nbx: nbx, nby: nby,
		wnx: nbx - n + 1, wny: nby - n + 1,
		tileBlocks: tb,
		planes:     make([]float64, nbx*nby*k),
		probs:      make([]float64, (nbx-n+1)*(nby-n+1)),
	}
	s.workers = make([]*workerState, s.pool.Size())
	for i := range s.workers {
		enc, err := cfg.Feature.NewBlockEncoder(blockPx)
		if err != nil {
			return nil, err
		}
		s.workers[i] = &workerState{
			enc:   enc,
			block: make([]float64, blockPx*blockPx),
			x:     tensor.New(k, n, n),
		}
	}
	return s, nil
}

// Windows returns the window grid dimensions.
func (s *Scanner) Windows() (wnx, wny int) { return s.wnx, s.wny }

// Blocks returns the die block grid dimensions.
func (s *Scanner) Blocks() (nbx, nby int) { return s.nbx, s.nby }

// BlockNM returns the block side — the scan stride — in nanometres.
func (s *Scanner) BlockNM() int { return s.blockNM }

// Die returns the die currently scanned (the edited die after Rescan).
func (s *Scanner) Die() geom.Clip { return s.die }

// WindowRect returns window (wx, wy)'s rectangle in die coordinates.
func (s *Scanner) WindowRect(wx, wy int) geom.Rect {
	x0 := s.die.Frame.X0 + wx*s.blockNM
	y0 := s.die.Frame.Y0 + wy*s.blockNM
	return geom.R(x0, y0, x0+s.cfg.WindowNM, y0+s.cfg.WindowNM)
}

// blockRect returns block (bx, by)'s rectangle in die coordinates.
func (s *Scanner) blockRect(bx, by int) geom.Rect {
	x0 := s.die.Frame.X0 + bx*s.blockNM
	y0 := s.die.Frame.Y0 + by*s.blockNM
	return geom.R(x0, y0, x0+s.blockNM, y0+s.blockNM)
}

// Scan runs a cold full scan: every block transformed once, every window
// assembled from the cache and scored.
func (s *Scanner) Scan() (*Result, error) {
	if err := s.ev.Prepare([]int{s.k, s.n, s.n}); err != nil {
		return nil, err
	}
	str := s.cfg.Tracer.Start("scan")
	tilesX := (s.nbx + s.tileBlocks - 1) / s.tileBlocks
	tilesY := (s.nby + s.tileBlocks - 1) / s.tileBlocks
	watch := obs.NewStopwatch()
	ex := str.StartSpan("extract")
	// Per-tile spans live in this closure, not in encodeRegion: the
	// hotpath kernel stays span-free and the spans no-op when dark.
	err := s.pool.For(tilesX*tilesY, func(worker, t int) error {
		tx, ty := t%tilesX, t/tilesX
		bx0, by0 := tx*s.tileBlocks, ty*s.tileBlocks
		bx1, by1 := minInt(bx0+s.tileBlocks, s.nbx), minInt(by0+s.tileBlocks, s.nby)
		tsp := ex.Child("tile")
		tsp.SetInt("tx", int64(tx))
		tsp.SetInt("ty", int64(ty))
		tsp.SetInt("blocks", int64((bx1-bx0)*(by1-by0)))
		encErr := s.encodeRegion(worker, bx0, by0, bx1, by1)
		tsp.End()
		return encErr
	})
	d := watch.Elapsed()
	obs.Default().Stage("scan/extract").ObserveDuration(d)
	ex.EndWith(d)
	if err != nil {
		return nil, s.fail(str, err)
	}
	watch = obs.NewStopwatch()
	in := str.StartSpan("infer")
	err = s.pool.For(s.wny, func(worker, wy int) error {
		rsp := in.Child("row")
		rsp.SetInt("wy", int64(wy))
		rsp.SetInt("windows", int64(s.wnx))
		rowErr := s.scoreRow(worker, wy, 0, s.wnx)
		rsp.End()
		return rowErr
	})
	d = watch.Elapsed()
	obs.Default().Stage("scan/infer").ObserveDuration(d)
	in.EndWith(d)
	if err != nil {
		return nil, s.fail(str, err)
	}
	s.scanned = true
	st := Stats{
		BlockDCTs:    s.nbx * s.nby,
		Windows:      s.wnx * s.wny,
		BlockGathers: int64(s.wnx*s.wny) * int64(s.n*s.n),
	}
	return s.finish(st, str), nil
}

// fail closes a pass trace on an error path and passes the error through.
func (s *Scanner) fail(tr *trace.Trace, err error) error {
	if tr != nil {
		tr.SetError(err.Error())
		tr.Finish()
	}
	return err
}

// encodeRegion rasterizes the block range [bx0,bx1)×[by0,by1) and encodes
// every block into its cache slot. Workers own disjoint block ranges, so
// slot writes never overlap; pixel values are independent of the region
// bounds (area-accurate rasterization is per-pixel local), so the cached
// vectors are independent of tiling and worker count.
//
//hsd:hotpath
func (s *Scanner) encodeRegion(worker, bx0, by0, bx1, by1 int) error {
	ws := s.workers[worker]
	region := geom.R(
		s.die.Frame.X0+bx0*s.blockNM, s.die.Frame.Y0+by0*s.blockNM,
		s.die.Frame.X0+bx1*s.blockNM, s.die.Frame.Y0+by1*s.blockNM,
	)
	im, err := raster.Rasterize(geom.NewClip(region, s.die.Rects), s.cfg.Feature.ResNM)
	if err != nil {
		return err
	}
	b := s.blockPx
	for by := by0; by < by1; by++ {
		for bx := bx0; bx < bx1; bx++ {
			px0 := (bx - bx0) * b
			py0 := (by - by0) * b
			for y := 0; y < b; y++ {
				srcRow := (py0+y)*im.W + px0
				copy(ws.block[y*b:(y+1)*b], im.Pix[srcRow:srcRow+b])
			}
			slot := (by*s.nbx + bx) * s.k
			if err := ws.enc.EncodeInto(s.planes[slot:slot+s.k], ws.block); err != nil {
				return err
			}
		}
	}
	return nil
}

// scoreRow assembles and scores windows (wx0..wx1) of window row wy on
// one worker's replica, writing into the row's probability slots.
//
//hsd:hotpath
func (s *Scanner) scoreRow(worker, wy, wx0, wx1 int) error {
	ws := s.workers[worker]
	dst := ws.x.Data()
	for wx := wx0; wx < wx1; wx++ {
		s.assembleWindow(dst, wx, wy)
		p, err := s.ev.PredictOn(worker, ws.x)
		if err != nil {
			return err
		}
		s.probs[wy*s.wnx+wx] = p
	}
	return nil
}

// assembleWindow gathers the cached coefficient vectors of the Blocks²
// blocks under window (wx, wy) into a channels-first (K, n, n) tensor
// buffer — the exact layout feature.ExtractTensor produces, with the
// exact values the BlockEncoder cached.
//
//hsd:noalloc
func (s *Scanner) assembleWindow(dst []float64, wx, wy int) {
	n, k, nbx := s.n, s.k, s.nbx
	plane := n * n
	for r := 0; r < n; r++ {
		rowBase := ((wy+r)*nbx + wx) * k
		for c := 0; c < n; c++ {
			vec := s.planes[rowBase+c*k : rowBase+(c+1)*k]
			di := r*n + c
			for i, v := range vec {
				dst[i*plane+di] = v
			}
		}
	}
}

// finish derives the thresholded heat map and region proposals from the
// current probability grid, publishes pass metrics, and closes the pass
// trace (tr is nil when tracing is dark).
func (s *Scanner) finish(st Stats, tr *trace.Trace) *Result {
	res := &Result{
		WindowsX: s.wnx, WindowsY: s.wny,
		Probs: append([]float64(nil), s.probs...),
		Hot:   make([]bool, len(s.probs)),
	}
	for i, p := range s.probs {
		res.Hot[i] = train.Decide(p, s.cfg.Shift)
	}
	watch := obs.NewStopwatch()
	res.Regions = mergeRegions(res.Hot, res.Probs, s.wnx, s.wny, s)
	d := watch.Elapsed()
	obs.Default().Stage("scan/regions").ObserveDuration(d)
	tr.StartSpan("regions").EndWith(d)

	demand := st.BlockGathers + int64(st.BlockDCTs)
	if demand > 0 {
		st.CacheHitRate = float64(st.BlockGathers) / float64(demand)
	}
	res.Stats = st
	reg := obs.Default()
	reg.Counter("hsd_scan_block_dcts_total").Add(int64(st.BlockDCTs))
	reg.Counter("hsd_scan_block_gathers_total").Add(st.BlockGathers)
	reg.Counter("hsd_scan_windows_total").Add(int64(st.Windows))
	reg.Counter("hsd_scan_dirty_blocks_total").Add(int64(st.DirtyBlocks))
	reg.Gauge("hsd_scan_block_cache_hit_rate", 4).Set(st.CacheHitRate)
	tr.SetInt("block_dcts", int64(st.BlockDCTs))
	tr.SetInt("block_gathers", st.BlockGathers)
	tr.SetInt("windows", int64(st.Windows))
	tr.SetInt("dirty_blocks", int64(st.DirtyBlocks))
	tr.SetInt("regions", int64(len(res.Regions)))
	tr.SetFloat("cache_hit_rate", st.CacheHitRate)
	tr.Finish()
	return res
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
