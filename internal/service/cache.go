package service

import (
	"crypto/sha256"
	"slices"
	"sync"

	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

// planCache maps pipeline fingerprints to compiled plans with
// single-flight semantics: the first submitter of a key owns the
// compile, concurrent submitters of the same key wait on it, and a
// failed flight removes the entry so the next submitter retries instead
// of being served a poisoned error forever. Completed entries evict
// least-recently-used under the cap; in-flight compiles are never
// evicted (they are not in the LRU list until they complete).
//
// A completed entry also remembers the request bodies that resolved to
// it (the spec memo), so a byte-identical resubmission skips the decode.
// The bodies live and die with their entry: an eviction or a failed
// flight drops them, so the memo is bounded by the cache itself.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	order   []string // completed keys, least-recently-used first
	// bodies indexes every remembered body by its digest. It holds
	// exactly the bodies of the entries in entries, nothing more.
	bodies map[[sha256.Size]byte]*cacheEntry
	stats  *telemetry.ServiceStats
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed when the flight completes (either way)
	plan  *core.CompiledPlan
	built *spec.Built
	err   error // set (before close) when the flight failed
	// bodies are the request bodies remembered for this entry, oldest
	// first, at most maxEntryBodies; guarded by planCache.mu.
	bodies []*decodedBody
}

// maxEntryBodies bounds the request bodies one entry remembers. Bodies
// differ at one fingerprint only by JSON spelling (field order,
// whitespace, number forms), and a client sends one spelling.
const maxEntryBodies = 4

// decodedBody is one request body with its decode: the body's digest,
// the pipeline it decodes to and that pipeline's CanonicalDigest. A
// remembered pipeline is shared by every job its body submits, so
// nothing may write to it (Build and the verifier only read a spec).
type decodedBody struct {
	sum       [sha256.Size]byte
	pipeline  *spec.Pipeline
	canonical [sha256.Size]byte
}

func newPlanCache(capEntries int, stats *telemetry.ServiceStats) *planCache {
	return &planCache{
		cap:     capEntries,
		entries: make(map[string]*cacheEntry),
		bodies:  make(map[[sha256.Size]byte]*cacheEntry),
		stats:   stats,
	}
}

// acquire returns the entry for key and whether the caller owns the
// flight. Owners must call complete or fail exactly once; non-owners
// wait on entry.ready.
func (c *planCache) acquire(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.touch(key)
		return e, false
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// complete publishes a successful flight and applies LRU eviction.
func (c *planCache) complete(e *cacheEntry, plan *core.CompiledPlan, built *spec.Built) {
	c.mu.Lock()
	e.plan, e.built = plan, built
	close(e.ready)
	c.order = append(c.order, e.key)
	for len(c.order) > c.cap {
		victim := c.order[0]
		c.order = c.order[1:]
		if old, ok := c.entries[victim]; ok && old != e {
			delete(c.entries, victim)
			c.forget(old)
			c.stats.CacheEvictions.Add(1)
		}
	}
	c.mu.Unlock()
}

// fail publishes a failed flight and removes the entry so a later
// submission of the same key compiles fresh. Waiters observe e.err.
func (c *planCache) fail(e *cacheEntry, err error) {
	c.mu.Lock()
	e.err = err
	close(e.ready)
	if c.entries[e.key] == e {
		delete(c.entries, e.key)
	}
	c.forget(e)
	c.mu.Unlock()
}

// remember records that body resolved to the completed entry e, unless
// e has left the cache since. It moves a body remembered for another
// entry (its input files changed), and past maxEntryBodies it forgets
// the entry's oldest body.
func (c *planCache) remember(e *cacheEntry, body *decodedBody) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.key] != e {
		return
	}
	switch old := c.bodies[body.sum]; old {
	case e:
		return
	case nil:
	default:
		old.bodies = slices.DeleteFunc(old.bodies, func(b *decodedBody) bool { return b.sum == body.sum })
	}
	if len(e.bodies) == maxEntryBodies {
		delete(c.bodies, e.bodies[0].sum)
		e.bodies = slices.Delete(e.bodies, 0, 1)
	}
	e.bodies = append(e.bodies, body)
	c.bodies[body.sum] = e
}

// recall returns the remembered decode of the body with digest sum.
func (c *planCache) recall(sum [sha256.Size]byte) (*decodedBody, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.bodies[sum]; e != nil {
		for _, b := range e.bodies {
			if b.sum == sum {
				return b, true
			}
		}
	}
	return nil, false
}

// forget drops e's bodies from the index. The caller holds c.mu.
func (c *planCache) forget(e *cacheEntry) {
	for _, b := range e.bodies {
		if c.bodies[b.sum] == e {
			delete(c.bodies, b.sum)
		}
	}
	e.bodies = nil
}

// touch moves a completed key to the most-recently-used end. In-flight
// keys are absent from order; nothing to do for them.
func (c *planCache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = key
			return
		}
	}
}

// has reports whether key holds a successfully completed plan. The
// submit path uses it to skip re-validating warm resubmissions: a
// cached plan passed the static verifier (and the compiler) on the
// cold submission, so only the first sighting of a spec pays for
// plancheck.
func (c *planCache) has(key string) bool {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// len reports cached (completed) plans, for tests and reports.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}
