package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestTenantStateIsBounded streams distinct programs into a server
// whose program cache holds 8 entries: cached /run requests on the
// vmjit and tiered engines, no_cache /run requests, and drills.
// /metrics cache.entries and the tiers array stay within capacity,
// evicted entries take their tier handles with them, and no_cache
// requests and drills fill nothing.
func TestTenantStateIsBounded(t *testing.T) {
	const capacity, n = 8, 40
	s := newTestServer(t, func(c *Config) {
		c.CacheEntries = capacity
		c.AllowDrill = true
	})
	src := func(k int) string {
		return strings.TrimSuffix(progOK, "end\n") + fmt.Sprintf("  print %d\nend\n", k)
	}
	engines := []string{"vmjit", "tiered"}
	for k := 0; k < n; k++ {
		cached := RunRequest{CompileRequest: CompileRequest{Source: src(k), Engine: engines[k%2]}}
		fresh := RunRequest{CompileRequest: CompileRequest{Source: src(n + k), Engine: engines[k%2]}, NoCache: true}
		drill := DrillRequest{Spec: "1:1:pool.worker.slow", Run: RunRequest{CompileRequest: CompileRequest{Source: src(2*n + k)}}}
		for _, req := range []struct {
			path string
			body any
		}{{"/run", cached}, {"/run", fresh}, {"/drill", drill}} {
			if w := do(t, s, "POST", req.path, req.body, nil); w.Code != http.StatusOK {
				t.Fatalf("%s %d: status %d: %s", req.path, k, w.Code, w.Body.String())
			}
		}
		var m metricsDoc
		do(t, s, "GET", "/metrics", nil, &m)
		if m.Cache.Entries > m.Cache.Capacity || len(m.Tiers) > m.Cache.Capacity {
			t.Fatalf("after %d programs: %d entries, %d tier rows, capacity %d",
				k+1, m.Cache.Entries, len(m.Tiers), m.Cache.Capacity)
		}
	}
	var m metricsDoc
	do(t, s, "GET", "/metrics", nil, &m)
	if m.Cache.Capacity != capacity || m.Cache.Entries != capacity || m.Cache.Misses != n ||
		m.Cache.Evictions != n-capacity {
		t.Errorf("cache = %+v; want %d entries of %d, %d misses, %d evictions (only cached /run fills)",
			m.Cache, capacity, capacity, n, n-capacity)
	}
	if len(m.Tiers) != capacity || len(m.Pool.TierPrograms) != 0 {
		t.Errorf("%d tier rows (%d under pool); want %d, served once under tiers",
			len(m.Tiers), len(m.Pool.TierPrograms), capacity)
	}
}
