package serve

import (
	"container/list"
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"

	"hotspot/internal/raster"
)

// clipCache is a bounded LRU of hotspot probabilities keyed by a hash of
// the rasterized core window. Repeated clips — the common case in an
// online flow, where the same pattern is queried from many contexts — skip
// the DCT and the CNN forward pass entirely. Entries are whole-model
// artifacts: the server clears the cache when a reload swaps the network.
//
// All methods are safe for concurrent use.
type clipCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used
	entries map[uint64]*list.Element
}

// cacheEntry is one key → probability binding plus its LRU position.
type cacheEntry struct {
	key  uint64
	prob float64
}

// newClipCache builds a cache holding at most cap entries; cap <= 0
// disables caching (every lookup misses, every insert is dropped).
func newClipCache(cap int) *clipCache {
	c := &clipCache{cap: cap}
	if cap > 0 {
		c.order = list.New()
		c.entries = make(map[uint64]*list.Element, cap)
	}
	return c
}

// get returns the cached probability for key, marking it most recently
// used.
func (c *clipCache) get(key uint64) (float64, bool) {
	if c.cap <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return 0, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).prob, true
}

// add inserts (or refreshes) key → prob, evicting the least recently used
// entry when full.
func (c *clipCache) add(key uint64, prob float64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock() //hsd:allow hotlint LRU fill is one short critical section per served request, off the numeric path
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).prob = prob
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, prob: prob})
}

// clear drops every entry (model reload invalidates all cached outputs).
func (c *clipCache) clear() {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.entries)
}

// len returns the current entry count.
func (c *clipCache) len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// hashImage fingerprints a rasterized core window: maphash, keyed by the
// server's seed, over the dimensions and the bit patterns of every pixel,
// streamed through a stack buffer. Rasterization is deterministic, so two
// requests for the same geometry at the same resolution hash identically;
// the bit-pattern basis means the key — unlike any rounded representation
// — can never merge clips whose tensors would differ. The per-server seed
// keeps keys unpredictable from outside, so a client cannot craft a bitmap
// that collides with another clip's cached verdict.
//
//hsd:noalloc
func hashImage(seed maphash.Seed, im *raster.Image) uint64 {
	var h maphash.Hash
	h.SetSeed(seed) //hsd:allow alloclint the inlined zero-seed panic boxes a constant string, which is static data, not a heap allocation; New never leaves the seed zero
	var buf [4096]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(im.W))
	binary.LittleEndian.PutUint64(buf[8:], uint64(im.H))
	n := 16
	for _, p := range im.Pix {
		if n == len(buf) {
			_, _ = h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(p))
		n += 8
	}
	_, _ = h.Write(buf[:n])
	return h.Sum64()
}
