package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
)

// cacheKey derives the artifact identity of a request: a domain prefix,
// the code version (simulations are deterministic, so the same code + the
// same request + the same traces can only produce the same artifact), the
// canonical JSON of the request, and the content hash of every input trace
// in name order.
func cacheKey(version string, req Request, traceHashes []string) (string, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("serve: hashing request: %w", err)
	}
	h := sha256.New()
	io.WriteString(h, "bordercontrol/serve/v1\n")
	io.WriteString(h, version)
	io.WriteString(h, "\n")
	h.Write(blob)
	for _, th := range traceHashes {
		io.WriteString(h, "\n")
		io.WriteString(h, th)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// codeVersion identifies the running build for the cache key: the VCS
// revision when the binary carries one (plus a dirty marker), else "dev".
func codeVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "dev"
	}
	return rev + dirty
}

// artifactCache is a bounded insertion-order map from cache key to
// rendered artifact. Insertion-order eviction is deliberate: entries are
// immutable facts (same key ⇒ same artifact), so recency tracking buys
// nothing a bigger cache wouldn't.
type artifactCache struct {
	mu    sync.Mutex
	max   int
	order []string
	byKey map[string]string
	// hits/misses count lookups for the metrics page; pure observation.
	hits   uint64
	misses uint64
}

func newArtifactCache(max int) *artifactCache {
	return &artifactCache{max: max, byKey: make(map[string]string)}
}

func (c *artifactCache) get(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.byKey[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return a, ok
}

func (c *artifactCache) put(key, artifact string) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byKey[key]; dup {
		return
	}
	for len(c.order) >= c.max {
		delete(c.byKey, c.order[0])
		c.order = c.order[1:]
	}
	c.byKey[key] = artifact
	c.order = append(c.order, key)
}

func (c *artifactCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// counters returns (entries, hits, misses).
func (c *artifactCache) counters() (int, uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey), c.hits, c.misses
}
