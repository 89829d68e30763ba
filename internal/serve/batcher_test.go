package serve

import (
	"errors"
	"hash/maphash"
	"math"
	"testing"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/raster"
)

func testFeatureCfg() feature.TensorConfig {
	return feature.TensorConfig{Blocks: 4, K: 8, ResNM: 4, Normalize: true}
}

// TestEnqueueBackpressure exercises the bounded queue directly: a batcher
// whose flush loop is never started accepts exactly QueueSize requests,
// then fails fast with ErrQueueFull.
func TestEnqueueBackpressure(t *testing.T) {
	b := newBatcher(nil, 2, 4, time.Millisecond, parallel.New(1))
	mk := func() *request {
		return &request{im: raster.NewImage(4, 4), resp: make(chan result, 1)}
	}
	if err := b.enqueue(mk()); err != nil {
		t.Fatal(err)
	}
	if err := b.enqueue(mk()); err != nil {
		t.Fatal(err)
	}
	if err := b.enqueue(mk()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third enqueue on a 2-slot queue: %v, want ErrQueueFull", err)
	}
}

// TestEnqueueAfterClose: once Close returns, every enqueue is refused
// with ErrShuttingDown and every request accepted before Close was
// answered.
func TestEnqueueAfterClose(t *testing.T) {
	s, err := New(Config{
		Feature:        testFeatureCfg(),
		CoreSide:       192,
		MaxBatch:       4,
		MaxWait:        time.Millisecond,
		QueueSize:      8,
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No model loaded: accepted requests drain with ErrNoModel, which is
	// still an answer — the invariant is one result per accepted request.
	reqs := make([]*request, 4)
	for i := range reqs {
		reqs[i] = &request{im: raster.NewImage(48, 48), resp: make(chan result, 1)}
		if err := s.batcher.enqueue(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	for i, r := range reqs {
		select {
		case res := <-r.resp:
			if !errors.Is(res.err, ErrNoModel) {
				t.Fatalf("request %d: err %v, want ErrNoModel", i, res.err)
			}
		default:
			t.Fatalf("request %d accepted before Close was never answered", i)
		}
	}
	late := &request{im: raster.NewImage(48, 48), resp: make(chan result, 1)}
	if err := s.batcher.enqueue(late); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("enqueue after Close: %v, want ErrShuttingDown", err)
	}
	// Close is idempotent.
	s.Close()
}

// TestClipCacheLRU covers insert, hit, LRU eviction order, clear, and the
// disabled (cap 0) mode.
func TestClipCacheLRU(t *testing.T) {
	c := newClipCache(2)
	c.add(1, 0.1)
	c.add(2, 0.2)
	if p, ok := c.get(1); !ok || p != 0.1 {
		t.Fatalf("get(1) = %v,%v", p, ok)
	}
	// 1 is now most recent; adding 3 evicts 2.
	c.add(3, 0.3)
	if _, ok := c.get(2); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("LRU evicted the most recently used entry")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Refreshing an existing key updates in place, no growth.
	c.add(1, 0.9)
	if p, _ := c.get(1); p != 0.9 {
		t.Fatalf("refresh did not update: %v", p)
	}
	if c.len() != 2 {
		t.Fatalf("len after refresh = %d, want 2", c.len())
	}
	c.clear()
	if c.len() != 0 {
		t.Fatalf("len after clear = %d", c.len())
	}
	if _, ok := c.get(1); ok {
		t.Fatal("clear left an entry behind")
	}

	off := newClipCache(0)
	off.add(1, 0.5)
	if _, ok := off.get(1); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if off.len() != 0 {
		t.Fatal("disabled cache reports entries")
	}
}

// TestHashImageDistinguishes: equal pixels give equal keys under one seed;
// flipping any one of the 64 bits of any pixel (sign and exponent
// included) changes the key; swapping W and H changes the key; and the
// image is large enough to span several stack-buffer flushes.
func TestHashImageDistinguishes(t *testing.T) {
	seed := maphash.MakeSeed()
	const w, h = 24, 23 // 552 pixels: one full 4 KB buffer plus a tail
	a := raster.NewImage(w, h)
	for i := range a.Pix {
		a.Pix[i] = float64(i%5) / 4
	}
	key := hashImage(seed, a)
	if hashImage(seed, a.Clone()) != key {
		t.Fatal("equal images hash differently")
	}
	b := a.Clone()
	for i := range b.Pix {
		orig := b.Pix[i]
		for bit := 0; bit < 64; bit++ {
			b.Pix[i] = math.Float64frombits(math.Float64bits(orig) ^ 1<<bit)
			if hashImage(seed, b) == key {
				t.Fatalf("flipping bit %d of pixel %d did not change the key", bit, i)
			}
		}
		b.Pix[i] = orig
	}
	wide := raster.NewImage(16, 4) // same pixel count, different shape
	tall := raster.NewImage(4, 16)
	if hashImage(seed, wide) == hashImage(seed, tall) {
		t.Fatal("swapping W and H did not change the key")
	}
}

// TestHashImageZeroAlloc: keying a served 300×300 core allocates nothing.
func TestHashImageZeroAlloc(t *testing.T) {
	seed := maphash.MakeSeed()
	im := raster.NewImage(300, 300)
	if a := testing.AllocsPerRun(20, func() { _ = hashImage(seed, im) }); a != 0 {
		t.Fatalf("hashImage allocates %v times per call", a)
	}
}

// BenchmarkHashImage times the cache key of one 300×300 core.
func BenchmarkHashImage(b *testing.B) {
	seed := maphash.MakeSeed()
	im := raster.NewImage(300, 300)
	for i := range im.Pix {
		im.Pix[i] = float64(i%3) / 2
	}
	b.SetBytes(int64(8 * len(im.Pix)))
	for i := 0; i < b.N; i++ {
		_ = hashImage(seed, im)
	}
}

// TestCenteredCore pins the default-core geometry.
func TestCenteredCore(t *testing.T) {
	got := CenteredCore(geom.R(0, 0, 480, 480), 192)
	want := geom.R(144, 144, 336, 336)
	if got != want {
		t.Fatalf("CenteredCore = %+v, want %+v", got, want)
	}
	// Core == frame.
	if got := CenteredCore(geom.R(10, 20, 1210, 1220), 1200); got != geom.R(10, 20, 1210, 1220) {
		t.Fatalf("full-frame core = %+v", got)
	}
}

// TestConfigValidate rejects the obvious misconfigurations.
func TestConfigValidate(t *testing.T) {
	good := Config{
		Feature: testFeatureCfg(), CoreSide: 192, MaxBatch: 4,
		MaxWait: time.Millisecond, QueueSize: 8, RequestTimeout: time.Second,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.CoreSide = 100 // 25 px does not divide into 4 blocks
	if bad.Validate() == nil {
		t.Fatal("accepted an indivisible core")
	}
	bad = good
	bad.MaxBatch = 0
	if bad.Validate() == nil {
		t.Fatal("accepted MaxBatch 0")
	}
	bad = good
	bad.MaxWait = 0
	if bad.Validate() == nil {
		t.Fatal("accepted MaxWait 0 with batching on")
	}
	bad = good
	bad.QueueSize = 0
	if bad.Validate() == nil {
		t.Fatal("accepted QueueSize 0")
	}
	bad = good
	bad.RequestTimeout = 0
	if bad.Validate() == nil {
		t.Fatal("accepted RequestTimeout 0")
	}
	// MaxBatch 1 needs no deadline.
	solo := good
	solo.MaxBatch = 1
	solo.MaxWait = 0
	if err := solo.Validate(); err != nil {
		t.Fatal(err)
	}
}

// darkTraceSequence replays exactly the trace calls the batcher and the
// predict path make per request when tracing is dark (nil tracer): the
// zero-allocations-when-dark contract, measured where it matters.
func darkTraceSequence(tracer *trace.Tracer, req *request) {
	btr := tracer.Start("batch")
	btr.SetInt("size", 1)
	btr.SetInt("model_generation", 1)
	req.qspan.EndWith(0)
	req.qspan.SetStr("batch_id", btr.ID())
	if btr != nil {
		btr.SetStr("member_0", req.qspan.TraceID())
	}
	btr.StartSpan("extract").EndWith(0)
	btr.StartSpan("infer").EndWith(0)
	btr.FinishWith(0)
}

// TestBatcherDarkTraceZeroAlloc pins the hot-path contract directly:
// with tracing disabled the full per-batch instrumentation sequence
// allocates nothing.
func TestBatcherDarkTraceZeroAlloc(t *testing.T) {
	req := &request{} // dark server: no trace, no qspan
	allocs := testing.AllocsPerRun(200, func() {
		darkTraceSequence(nil, req)
	})
	if allocs != 0 {
		t.Fatalf("dark batcher tracing allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkBatcherDarkTrace is the 0 B/op acceptance benchmark for the
// serving hot path with tracing disabled.
func BenchmarkBatcherDarkTrace(b *testing.B) {
	req := &request{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		darkTraceSequence(nil, req)
	}
}
