package graph

import (
	"sync"

	"murphy/internal/telemetry"
)

// SubgraphCache memoizes ShortestPathSubgraph results for one (immutable)
// graph. A diagnosis evaluates every candidate against the same symptom, so
// the reverse BFS from the symptom is computed once and shared, and the
// per-(candidate, symptom) subgraph is computed at most once even when the
// same model serves many Diagnose calls.
//
// The cache is safe for concurrent use (parallel diagnosis workers share one).
// Returned slices are shared between callers and the cache: treat them as
// read-only.
type SubgraphCache struct {
	g  *Graph
	mu sync.RWMutex
	// rev[di] is the reverse-BFS distance field toward node di.
	rev map[int][]int
	// paths[(ai,di)] is the memoized subgraph; nil-but-present means
	// "unreachable", so negative results are cached too.
	paths map[[2]int][]telemetry.EntityID
	// hook, when set, observes every memoization lookup (true on hit).
	hook func(hit bool)
}

// SetHook installs a lookup observer, called with true on every memoization
// hit and false on every miss. Set it before the cache is shared between
// goroutines; the hook itself must be safe for concurrent use.
func (c *SubgraphCache) SetHook(hook func(hit bool)) { c.hook = hook }

// NewSubgraphCache returns an empty cache over g. The graph must not be
// mutated while the cache is in use (Graph has no mutating methods after
// Build, so this holds by construction).
func NewSubgraphCache(g *Graph) *SubgraphCache {
	return &SubgraphCache{
		g:     g,
		rev:   make(map[int][]int),
		paths: make(map[[2]int][]telemetry.EntityID),
	}
}

// ShortestPathSubgraph is Graph.ShortestPathSubgraph with memoization keyed
// by (candidate, symptom).
func (c *SubgraphCache) ShortestPathSubgraph(a, d telemetry.EntityID) []telemetry.EntityID {
	ai, ok := c.g.index[a]
	if !ok {
		return nil
	}
	di, ok := c.g.index[d]
	if !ok {
		return nil
	}
	if ai == di {
		return []telemetry.EntityID{a}
	}
	key := [2]int{ai, di}
	c.mu.RLock()
	path, hit := c.paths[key]
	toD := c.rev[di]
	c.mu.RUnlock()
	if c.hook != nil {
		c.hook(hit)
	}
	if hit {
		return path
	}
	if toD == nil {
		toD = c.g.bfsDist(di, false)
	}
	path = c.g.shortestPathWith(ai, di, toD)
	c.mu.Lock()
	c.rev[di] = toD
	c.paths[key] = path
	c.mu.Unlock()
	return path
}

// ReverseDistances returns the memoized reverse-BFS distance field toward d:
// out[i] is the forward-edge hop count from node index i to d, or -1 when d
// is unreachable from i. It is the same field ShortestPathSubgraph shares
// across a diagnosis; the topology query surface reuses it to annotate which
// neighborhood nodes can influence the center entity. The slice is shared
// with the cache: treat it as read-only. Returns nil when d is not in the
// graph.
func (c *SubgraphCache) ReverseDistances(d telemetry.EntityID) []int {
	di, ok := c.g.index[d]
	if !ok {
		return nil
	}
	c.mu.RLock()
	toD := c.rev[di]
	c.mu.RUnlock()
	if toD != nil {
		return toD
	}
	toD = c.g.bfsDist(di, false)
	c.mu.Lock()
	c.rev[di] = toD
	c.mu.Unlock()
	return toD
}

// Len returns the number of memoized (candidate, symptom) entries.
func (c *SubgraphCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.paths)
}
