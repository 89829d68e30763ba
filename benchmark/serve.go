package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/nn"
	"hotspot/internal/serve"
	"hotspot/internal/train"
)

// Input streams: each workload draws its inputs from its own keyed stream.
const (
	streamInteractive = iota + 1
	streamBulk
	streamGate
	streamSchedule
	streamDie
	streamEdits
	streamSuite
	streamPool
)

const (
	connections    = 2                // load-generating goroutines and connections
	requestTimeout = 10 * time.Second // a request slower than this failed
	serveSetups    = 25               // set-ups timed per run: one takes about 10 ms
)

// serveRig is an in-process serve.Server behind a loopback HTTP listener,
// and the client that loads it.
type serveRig struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error // http.Server.Serve's return
	client *http.Client
	url    string
}

func newServeRig(seed int64) (*serveRig, error) {
	net0, err := paperNet(seed)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := srv.LoadNetwork(net0, "benchmark"); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &serveRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: requestTimeout},
		served: make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true},
			Timeout:   requestTimeout,
		},
		url: "http://" + ln.Addr().String(),
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	resp, err := r.client.Get(r.url + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close shuts the listener down, waits for Serve to return, and drains
// the batcher.
func (r *serveRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	_ = r.hs.Shutdown(ctx) // a timed-out shutdown still closes the listener; Serve returns either way
	<-r.served
	r.srv.Close()
	r.client.CloseIdleConnections()
}

// post sends one JSON body and decodes a 200 reply into out.
func (r *serveRig) post(path string, body []byte, out any) (int, error) {
	resp, err := r.client.Post(r.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

func refused(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// iccadClip is input clip i of a stream: an ICCAD-style 1600 nm frame.
func iccadClip(seed int64, stream, i int) geom.Clip {
	return layout.Generate(layout.StyleICCAD(), rand.New(rand.NewSource(subSeed(seed, stream, i))))
}

func clipRequest(c geom.Clip) serve.ClipRequest {
	f := serve.RectJSON{X0: c.Frame.X0, Y0: c.Frame.Y0, X1: c.Frame.X1, Y1: c.Frame.Y1}
	rects := make([]serve.RectJSON, len(c.Rects))
	for i, r := range c.Rects {
		rects[i] = serve.RectJSON{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y1}
	}
	return serve.ClipRequest{Frame: &f, Rects: rects}
}

// servedCore is the window the server scores a clip on.
func servedCore(c geom.Clip) geom.Rect {
	return serve.CenteredCore(c.Frame, serve.DefaultConfig().CoreSide)
}

// referenceProbs is the offline per-clip reference: feature.ExtractTensor
// plus train.PredictProb on the layered network, on two goroutines with a
// network each.
func referenceProbs(seed int64, clips []geom.Clip) ([]float64, error) {
	probs := make([]float64, len(clips))
	errs := make([]error, connections)
	var wg sync.WaitGroup
	for g := 0; g < connections; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			net0, err := paperNet(seed)
			for i := g; i < len(clips) && err == nil; i += connections {
				probs[i], err = referenceProb(net0, clips[i])
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	return probs, errors.Join(errs...)
}

func referenceProb(net0 *nn.Network, c geom.Clip) (float64, error) {
	x, err := feature.ExtractTensor(c, servedCore(c), featureCfg)
	if err != nil {
		return 0, err
	}
	return train.PredictProb(net0, x)
}

func sameProb(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// gateServe sends each gate clip as a single predict (cache miss) and then
// all of them as one batch (cache hits); every probability must bit-equal
// the offline reference.
func gateServe(r *serveRig, clips []geom.Clip, ref []float64) error {
	batch := serve.BatchRequest{}
	for i, c := range clips {
		body, _ := json.Marshal(clipRequest(c))
		var pr serve.PredictResponse
		if status, err := r.post("/v1/predict", body, &pr); err != nil || status != http.StatusOK {
			return gatef("gate predict %d: status %d, %v", i, status, err)
		}
		if !sameProb(pr.Prob, ref[i]) {
			return gatef("served prob %v for gate clip %d, offline reference %v", pr.Prob, i, ref[i])
		}
		batch.Clips = append(batch.Clips, clipRequest(c))
	}
	body, _ := json.Marshal(batch)
	var br serve.BatchResponse
	if status, err := r.post("/v1/predict/batch", body, &br); err != nil || status != http.StatusOK || len(br.Results) != len(clips) {
		return gatef("gate batch: status %d, %d results, %v", status, len(br.Results), err)
	}
	for i, res := range br.Results {
		if !sameProb(res.Prob, ref[i]) || !res.Cached {
			return gatef("batch gate clip %d: prob %v (cached %v), reference %v", i, res.Prob, res.Cached, ref[i])
		}
	}
	return nil
}

// serveLayers reads the serve layer's own statistics for one phase.
func serveLayers(m serve.MetricsSnapshot, layers map[string]float64) {
	st := m.Stages
	layers["serve.queue_p50_ms"] = st["queue"].P50 * 1e3
	layers["serve.queue_p99_ms"] = st["queue"].P99 * 1e3
	layers["serve.batch_p50_ms"] = st["batch"].P50 * 1e3
	layers["serve.extract_p50_ms"] = st["extract"].P50 * 1e3
	layers["serve.infer_p50_ms"] = st["infer"].P50 * 1e3
	layers["serve.request_p50_ms"] = st["request"].P50 * 1e3
	layers["serve.cache_hit_ratio"] = m.HitRate()
	var clips, batches int64
	for size, n := range m.BatchSizes {
		clips += int64(size) * n
		batches += n
	}
	layers["serve.batch_size_mean"] = float64(clips) / float64(max(batches, 1))
	var all, shed int64
	for _, ep := range []string{"predict", "predict_batch"} {
		for status, n := range m.Requests[ep] {
			all += n
			if refused(status) {
				shed += n
			}
		}
	}
	layers["serve.refused_share"] = float64(shed) / float64(max(all, 1))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// --- serve-interactive ---

type reply struct {
	status int
	err    error
	latMS  float64 // from when the request was due (open loop) or sent
	lateMS float64 // how late the generator sent it
	probs  []float64
}

func (p reply) ok() bool { return p.err == nil && p.status == http.StatusOK }

// poissonSchedule returns n Poisson arrival offsets at `rate` per second,
// rescaled so the last arrival lands at exactly n/rate seconds: a fixed
// sample count over a fixed span.
func poissonSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(subSeed(seed, streamSchedule, 0)))
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += rng.ExpFloat64() / rate
		at[i] = t
	}
	out := make([]time.Duration, n)
	for i := range at {
		out[i] = time.Duration(at[i] / t * float64(n) / rate * float64(time.Second))
	}
	return out
}

// openLoop sends bodies[i] at due[i] after the start from `connections`
// generators; a request whose generator is still busy goes out late, and
// its latency still counts from when it was due.
func openLoop(r *serveRig, bodies [][]byte, due []time.Duration, tr *tracer, root span) (replies []reply, wall time.Duration) {
	replies = make([]reply, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < connections; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				at := start.Add(due[i])
				w := tr.start("loadgen.wait", root)
				time.Sleep(time.Until(at))
				w.end()
				sent := time.Now()
				h := tr.start("http.predict", root)
				var pr serve.PredictResponse
				status, err := r.post("/v1/predict", bodies[i], &pr)
				h.end()
				replies[i] = reply{status: status, err: err, latMS: ms(time.Since(at)), lateMS: ms(sent.Sub(at)), probs: []float64{pr.Prob}}
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// account checks every reply against the reference and fills the phase
// counts; failed requests count as missing any latency limit.
func account(o *outcome, phase string, replies []reply, want func(i int) []float64) []float64 {
	c := counts{Phase: phase}
	lat := make([]float64, len(replies))
	for i, p := range replies {
		c.add(p.ok(), refused(p.status))
		lat[i] = p.latMS
		if !p.ok() {
			lat[i] = ms(requestTimeout)
			continue
		}
		w := want(i)
		if len(p.probs) != len(w) {
			o.wrong = append(o.wrong, fmt.Sprintf("%s request %d: %d results for %d clips", phase, i, len(p.probs), len(w)))
			continue
		}
		for j := range w {
			if !sameProb(p.probs[j], w[j]) {
				o.wrong = append(o.wrong, fmt.Sprintf("%s request %d clip %d: served %v, offline reference %v", phase, i, j, p.probs[j], w[j]))
				break
			}
		}
	}
	o.phases = append(o.phases, c)
	return lat
}

func servedChecksum(replies []reply) string {
	var all []float64
	for _, p := range replies {
		all = append(all, p.probs...)
	}
	return checksum(all)
}

func runInteractive(c *config) (*outcome, error) {
	const rate = 40.0
	n, gateN := int(rate)*c.seconds, 8
	if c.tiny {
		n, gateN = 12, 2
	}
	rig, setupS, err := repeatSetup(c.setups(serveSetups), func() (*serveRig, error) { return newServeRig(c.seed) }, (*serveRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	clips := make([]geom.Clip, n+gateN)
	for i := range clips {
		stream := streamInteractive
		if i >= n {
			stream = streamGate
		}
		clips[i] = iccadClip(c.seed, stream, i)
	}
	gateRef, err := referenceProbs(c.seed, clips[n:])
	if err != nil {
		return nil, err
	}
	if err := gateServe(rig, clips[n:], gateRef); err != nil {
		return nil, err
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		if bodies[i], err = json.Marshal(clipRequest(clips[i])); err != nil {
			return nil, err
		}
	}
	due := poissonSchedule(c.seed, n, rate)
	// Warm-up: both connections open and the request path hot before
	// timing, on clips the measured phase never sends.
	warm := make([][]byte, 2*connections)
	for i := range warm {
		if warm[i], err = json.Marshal(clipRequest(iccadClip(c.seed, streamGate, 100+i))); err != nil {
			return nil, err
		}
	}
	openLoop(rig, warm, make([]time.Duration, len(warm)), nil, span{})

	o := &outcome{
		names:     opNames{p50: "predict_p50_ms", tail: "predict_tail_ms", latUnit: "ms", latScale: 1, work: "predict_per_cpu_s", workUnit: "req/CPU-s"},
		setupS:    setupS,
		checksums: map[string]string{},
	}
	runtime.GC() // the measured phase starts from a collected heap
	cpu0 := cpuSeconds()
	replies, _ := openLoop(rig, bodies, due, nil, span{})
	cpuS := cpuSeconds() - cpu0
	o.rssMB = peakRSSMB()
	// The offline reference runs after timing, so its memory churn stays
	// out of peak_rss_mb.
	ref, err := referenceProbs(c.seed, clips[:n])
	if err != nil {
		return nil, err
	}
	want := func(i int) []float64 { return ref[i : i+1] }
	o.latencyMS = account(o, "measure", replies, want)
	// The schedule fixes requests per wall second at 40, so throughput is
	// taken per CPU second the process (server and load generator) spent.
	o.work, o.workS, o.workNote = float64(o.phases[0].Succeeded), cpuS, "answered requests over process CPU seconds"
	o.busyS = sum(o.latencyMS) / 1e3
	o.checksums["served_probs"] = servedChecksum(replies)
	if !c.trace {
		return o, nil
	}

	// Traced pass on a fresh server, so its statistics and cache hold
	// this pass alone.
	rig2, err := newServeRig(c.seed)
	if err != nil {
		return nil, err
	}
	defer rig2.close()
	openLoop(rig2, warm, make([]time.Duration, len(warm)), nil, span{})
	var replies2 []reply
	err = o.traced(c, "serve-interactive", func(tr *tracer, root span) (int, error) {
		replies2, _ = openLoop(rig2, bodies, due, tr, root)
		return len(replies2), nil
	})
	if err != nil {
		return nil, err
	}
	o.tracedBusyS = sum(account(o, "traced", replies2, want)) / 1e3
	serveLayers(rig2.srv.Metrics(), o.layers)
	late := make([]float64, len(replies2))
	for i, p := range replies2 {
		late[i] = p.lateMS
	}
	o.layers["loadgen.late_p99_ms"] = quantile(sortedCopy(late), 0.99)
	served := make([]float64, n)
	for i, p := range replies2 {
		if len(p.probs) == 1 {
			served[i] = p.probs[0]
		}
	}
	k := min(n, replayClips(c))
	net0, err := paperNet(c.seed)
	if err != nil {
		return nil, err
	}
	cores := make([]geom.Rect, k)
	for i := range cores {
		cores[i] = servedCore(clips[i])
	}
	if err := replayInference(net0, clips[:k], cores, served[:k], nil, o.layers); err != nil {
		o.wrong = append(o.wrong, err.Error())
	}
	return o, nil
}

// replayClips is how many of a workload's inputs the per-layer replays
// feed through.
func replayClips(c *config) int {
	if c.tiny {
		return 4
	}
	return 64
}

// --- serve-bulk ---

// bulkPlan is each client's request sequence as clip ids: request 0 is
// all new clips; every later one is half new clips and half repeats of
// the client's own recent clips, which its earlier requests have already
// answered (so they are cache hits unless evicted).
type bulkPlan struct {
	requests [][][]int // [client][request] → clip ids
	clips    []geom.Clip
}

func planBulk(seed int64, perClient, clipsPerReq int) bulkPlan {
	var p bulkPlan
	for cl := 0; cl < connections; cl++ {
		rng := rand.New(rand.NewSource(subSeed(seed, streamBulk, 1000+cl)))
		var mine []int
		var reqs [][]int
		for j := 0; j < perClient; j++ {
			fresh := clipsPerReq
			if j > 0 {
				fresh = clipsPerReq / 2
			}
			ids := make([]int, 0, clipsPerReq)
			for k := 0; k < fresh; k++ {
				id := len(p.clips)
				p.clips = append(p.clips, iccadClip(seed, streamBulk, id))
				ids = append(ids, id)
			}
			recent := mine[max(0, len(mine)-1024):]
			for len(ids) < clipsPerReq {
				ids = append(ids, recent[rng.Intn(len(recent))])
			}
			rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
			mine = append(mine, ids[:fresh]...)
			reqs = append(reqs, ids)
		}
		p.requests = append(p.requests, reqs)
	}
	return p
}

// closedLoop runs each client's requests back to back on its own
// connection.
func closedLoop(r *serveRig, bodies [][][]byte, tr *tracer, root span) (replies [][]reply, wall time.Duration) {
	replies = make([][]reply, len(bodies))
	var wg sync.WaitGroup
	start := time.Now()
	for cl := range bodies {
		replies[cl] = make([]reply, len(bodies[cl]))
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for j, body := range bodies[cl] {
				sent := time.Now()
				h := tr.start("http.predict_batch", root)
				var br serve.BatchResponse
				status, err := r.post("/v1/predict/batch", body, &br)
				h.end()
				probs := make([]float64, len(br.Results))
				for k, res := range br.Results {
					probs[k] = res.Prob
				}
				replies[cl][j] = reply{status: status, err: err, latMS: ms(time.Since(sent)), probs: probs}
			}
		}(cl)
	}
	wg.Wait()
	return replies, time.Since(start)
}

func runBulk(c *config) (*outcome, error) {
	perClient, clipsPerReq := 3*c.seconds, 64
	if c.tiny {
		perClient, clipsPerReq = 2, 16
	}
	rig, setupS, err := repeatSetup(c.setups(serveSetups), func() (*serveRig, error) { return newServeRig(c.seed) }, (*serveRig).close)
	if err != nil {
		return nil, err
	}
	defer rig.close()

	plan := planBulk(c.seed, perClient, clipsPerReq)
	gate := []geom.Clip{iccadClip(c.seed, streamGate, 0), iccadClip(c.seed, streamGate, 1)}
	gateRef, err := referenceProbs(c.seed, gate)
	if err != nil {
		return nil, err
	}
	if err := gateServe(rig, gate, gateRef); err != nil {
		return nil, err
	}
	bodies := make([][][]byte, connections)
	for cl, reqs := range plan.requests {
		for _, ids := range reqs {
			br := serve.BatchRequest{Clips: make([]serve.ClipRequest, len(ids))}
			for k, id := range ids {
				br.Clips[k] = clipRequest(plan.clips[id])
			}
			b, err := json.Marshal(br)
			if err != nil {
				return nil, err
			}
			bodies[cl] = append(bodies[cl], b)
		}
	}
	// Requests in sending order across clients: request j of every
	// client, then j+1.
	var flat [][]int // clip ids, in that order
	for j := 0; j < perClient; j++ {
		for cl := range plan.requests {
			flat = append(flat, plan.requests[cl][j])
		}
	}
	flatten := func(rs [][]reply) []reply {
		out := make([]reply, 0, len(flat))
		for j := 0; j < perClient; j++ {
			for _, r := range rs {
				out = append(out, r[j])
			}
		}
		return out
	}

	o := &outcome{
		names:     opNames{p50: "bulk_p50_ms", tail: "bulk_tail_ms", latUnit: "ms", latScale: 1, work: "bulk_clips_per_s", workUnit: "clips/s"},
		setupS:    setupS,
		checksums: map[string]string{},
	}
	// Warm-up: one small batch per client opens both connections.
	warmBody, err := json.Marshal(serve.BatchRequest{Clips: []serve.ClipRequest{clipRequest(gate[0]), clipRequest(gate[1])}})
	if err != nil {
		return nil, err
	}
	warm := [][][]byte{{warmBody}, {warmBody}}
	closedLoop(rig, warm, nil, span{})
	runtime.GC() // the measured phase starts from a collected heap
	replies, wall := closedLoop(rig, bodies, nil, span{})
	o.rssMB = peakRSSMB()
	ref, err := referenceProbs(c.seed, plan.clips)
	if err != nil {
		return nil, err
	}
	want := func(i int) []float64 {
		w := make([]float64, len(flat[i]))
		for k, id := range flat[i] {
			w[k] = ref[id]
		}
		return w
	}
	all := flatten(replies)
	o.latencyMS = account(o, "measure", all, want)
	o.work, o.workS, o.workNote = float64(o.phases[0].Succeeded*clipsPerReq), wall.Seconds(), "clips answered over the phase's wall time"
	o.busyS = wall.Seconds()
	o.checksums["served_probs"] = servedChecksum(all)
	o.extra = append(o.extra, fmt.Sprintf("bulk_cache_hit_ratio = %.6g share (server counters, gate and warm-up included)", rig.srv.Metrics().HitRate()))
	if !c.trace {
		return o, nil
	}

	rig2, err := newServeRig(c.seed)
	if err != nil {
		return nil, err
	}
	defer rig2.close()
	closedLoop(rig2, warm, nil, span{})
	var all2 []reply
	err = o.traced(c, "serve-bulk", func(tr *tracer, root span) (int, error) {
		replies2, wall2 := closedLoop(rig2, bodies, tr, root)
		all2 = flatten(replies2)
		o.tracedBusyS = wall2.Seconds()
		return len(all2), nil
	})
	if err != nil {
		return nil, err
	}
	account(o, "traced", all2, want)
	serveLayers(rig2.srv.Metrics(), o.layers)

	// Replay the first request's clips (in request order) against the
	// probabilities the server returned for them.
	ids := flat[0][:min(len(flat[0]), replayClips(c))]
	clips := make([]geom.Clip, len(ids))
	cores := make([]geom.Rect, len(ids))
	for k, id := range ids {
		clips[k], cores[k] = plan.clips[id], servedCore(plan.clips[id])
	}
	net0, err := paperNet(c.seed)
	if err != nil {
		return nil, err
	}
	if !all2[0].ok() {
		o.wrong = append(o.wrong, "replay: the traced phase's first request failed")
	} else if err := replayInference(net0, clips, cores, all2[0].probs[:len(ids)], nil, o.layers); err != nil {
		o.wrong = append(o.wrong, err.Error())
	}
	return o, nil
}
