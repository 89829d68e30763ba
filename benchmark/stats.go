package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"hotspot/internal/nn/fused"
)

// mix64 is the splitmix64 finalizer: every generated input is keyed by
// (seed, index), so inputs do not depend on generation order or worker
// count. It is also the active loop's round-key construction
// (active.Loop keys round r with mix64(seed, r)), which the selection
// replay needs to reproduce.
func mix64(key, v uint64) uint64 {
	z := key + (v+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// subSeed derives an independent int64 seed for stream `stream`, item i.
func subSeed(seed int64, stream, i int) int64 {
	return int64(mix64(mix64(uint64(seed), uint64(stream)), uint64(i)) >> 1)
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the ceiling nearest-rank quantile of an ascending sample
// (the convention internal/obs uses).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latency returns the median and the tail of per-operation latencies
// over the whole run, and the tail's percentile (0–100). The tail is the
// highest percentile with at least ten samples beyond it (p98.75 of 800);
// below 21 samples no percentile above the median qualifies, and the
// median is used.
func latency(xs []float64) (p50, tl, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	i := max(n-11, (n+1)/2-1)
	return quantile(s, 0.5), s[i], 100 * float64(i+1) / float64(n)
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// checksum is FNV-1a over the IEEE-754 bits of xs: two runs that agree on
// it produced bit-identical outputs.
func checksum(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		v := math.Float64bits(x)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// fingerprint identifies the machine a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Fused      string `json:"fused"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func machine() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Fused:      fused.Vectorized(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// counts is the failure accounting of one phase.
type counts struct {
	Phase     string `json:"phase"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	Refused   int    `json:"refused"`
}

func (c *counts) add(ok, refused bool) {
	c.Sent++
	switch {
	case ok:
		c.Succeeded++
	case refused:
		c.Refused++
		c.Failed++
	default:
		c.Failed++
	}
}

// --- spans ---

// spanRec is one recorded span: a call the benchmark made into a layer.
// Times are nanoseconds from the tracer's origin.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []spanRec
	next   int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span is an open span; the zero value (from a nil tracer) is inert.
type span struct {
	t   *tracer
	rec spanRec
}

func (t *tracer) start(name string, parent span) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{t: t, rec: spanRec{ID: id, Parent: parent.rec.ID, Name: name, Start: int64(time.Since(t.origin))}}
}

// end closes the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	s.rec.End = int64(time.Since(s.t.origin))
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its children (children may overlap each other:
// two load-generator connections run at once, so coverage is a union).
func selfTimes(spans []spanRec) map[int64]int64 {
	kids := map[int64][]spanRec{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfSummary aggregates self time by span name.
type selfSummary struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	SelfS float64 `json:"self_s"`
	WallS float64 `json:"wall_s"`
}

func summarize(spans []spanRec) []selfSummary {
	self := selfTimes(spans)
	by := map[string]*selfSummary{}
	var order []string
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &selfSummary{Name: s.Name}
			by[s.Name] = a
			order = append(order, s.Name)
		}
		a.Count++
		a.SelfS += float64(self[s.ID]) / 1e9
		a.WallS += float64(s.End-s.Start) / 1e9
	}
	sort.Slice(order, func(i, j int) bool { return by[order[i]].SelfS > by[order[j]].SelfS })
	out := make([]selfSummary, len(order))
	for i, n := range order {
		out[i] = *by[n]
	}
	return out
}

// unattributed is the share of root span `root`'s wall time that no child
// span covers: time the breakdown does not explain.
func unattributed(spans []spanRec, root int64) float64 {
	self := selfTimes(spans)
	for _, s := range spans {
		if s.ID == root && s.End > s.Start {
			return float64(self[root]) / float64(s.End-s.Start)
		}
	}
	return 1
}

// gap is an interval of a root span that none of its children covers.
type gap struct {
	lo, hi        int64  // ns from the tracer's origin
	after, before string // the child spans on either side ("" at the root's edges)
}

// largestGap returns the longest stretch of root span `root` that no
// child span covers: where unattributed time comes from.
func largestGap(spans []spanRec, root int64) gap {
	var r spanRec
	var kids []spanRec
	for _, s := range spans {
		if s.ID == root {
			r = s
		} else if s.Parent == root {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var best gap
	reach, last := r.Start, ""
	for _, c := range append(kids, spanRec{Start: r.End, End: r.End}) {
		if c.Start-reach > best.hi-best.lo {
			best = gap{lo: reach, hi: c.Start, after: last, before: c.Name}
		}
		if c.End > reach {
			reach, last = c.End, c.Name
		}
	}
	return best
}

// repeatSetup times build n times, keeps the last result and releases the
// others, collecting their garbage outside the timed part.
func repeatSetup[T any](n int, build func() (T, error), release func(T)) (T, []float64, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 {
			release(last)
		}
		last = v
		runtime.GC() // released set-ups' garbage would otherwise set peak_rss_mb
	}
	return last, times, nil
}

// memDelta measures allocation and GC activity over a phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) stop() (allocBytes uint64, gcs uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - m.before.TotalAlloc, after.NumGC - m.before.NumGC
}

// logf writes one detail line.
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
