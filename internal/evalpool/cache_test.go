package evalpool

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"nascent"
	"nascent/internal/progcache"
)

// TestCacheSingleflight: concurrent requests for one key run the
// fill exactly once; everyone blocks on the same entry and shares the
// result.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache[byte, *program](8)
	var fills atomic.Int32
	var wg sync.WaitGroup
	results := make([]*program, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, _, err := c.Get(1, func() (*program, error) {
				fills.Add(1)
				return &program{engine: nascent.EngineTree}, nil
			})
			if err != nil {
				t.Errorf("get: %v", err)
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1 (singleflight)", n)
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("request %d got a different artifact pointer", i)
		}
	}
}

// TestCacheFailureCached: a failed fill is cached too — hammering a
// broken source must not buy CPU.
func TestCacheFailureCached(t *testing.T) {
	c := NewCache[byte, *program](8)
	var fills atomic.Int32
	boom := errors.New("boom")
	fill := func() (*program, error) {
		fills.Add(1)
		return nil, boom
	}
	if _, _, err := c.Get(2, fill); !errors.Is(err, boom) {
		t.Fatalf("first get err = %v", err)
	}
	_, hit, err := c.Get(2, fill)
	if !errors.Is(err, boom) || !hit {
		t.Fatalf("second get err = %v hit = %v, want cached failure", err, hit)
	}
	if fills.Load() != 1 {
		t.Fatalf("failed fill reran %d times", fills.Load())
	}
}

// TestCacheLRUEviction: capacity bounds the entry count; the least
// recently used key is evicted first and refills on return.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache[byte, *program](2)
	fillCount := map[byte]int{}
	get := func(n byte) {
		c.Get(n, func() (*program, error) {
			fillCount[n]++
			return &program{}, nil
		})
	}
	get(1)
	get(2)
	get(1) // touch 1: now 2 is the LRU victim
	get(3) // evicts 2

	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 || st.Capacity != 2 {
		t.Fatalf("stats = %+v, want 2 entries, 1 eviction, capacity 2", st)
	}
	// 1 survived; 2 was evicted and must refill.
	get(1)
	get(2)
	if fillCount[1] != 1 {
		t.Errorf("key 1 filled %d times, want 1 (still resident)", fillCount[1])
	}
	if fillCount[2] != 2 {
		t.Errorf("key 2 filled %d times, want 2 (evicted once)", fillCount[2])
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 {
		t.Errorf("stats = %+v, want 2 hits, 4 misses, 2 evictions", st)
	}
}

// TestContentKeyDisambiguation: every input dimension must change the
// program cache key — no field-boundary aliasing between source and
// filename, and options/engine all participate.
func TestContentKeyDisambiguation(t *testing.T) {
	key := func(source, filename string, opts nascent.Options, engine nascent.Engine) progcache.Key {
		j := Job{Source: source, Filename: filename, Opts: opts, Run: nascent.RunConfig{Engine: engine}}
		return j.Key()
	}
	base := key("src", "f.mf", nascent.Options{BoundsChecks: true}, nascent.EngineTree)
	variants := map[string]progcache.Key{
		"source":   key("src2", "f.mf", nascent.Options{BoundsChecks: true}, nascent.EngineTree),
		"filename": key("src", "g.mf", nascent.Options{BoundsChecks: true}, nascent.EngineTree),
		"boundary": key("srcf", ".mf", nascent.Options{BoundsChecks: true}, nascent.EngineTree),
		"checks":   key("src", "f.mf", nascent.Options{}, nascent.EngineTree),
		"scheme":   key("src", "f.mf", nascent.Options{BoundsChecks: true, Scheme: nascent.ALL}, nascent.EngineTree),
		"kind":     key("src", "f.mf", nascent.Options{BoundsChecks: true, Kind: nascent.INX}, nascent.EngineTree),
		"impl":     key("src", "f.mf", nascent.Options{BoundsChecks: true, Implications: nascent.ImplyNone}, nascent.EngineTree),
		"rotate":   key("src", "f.mf", nascent.Options{BoundsChecks: true, RotateLoops: true}, nascent.EngineTree),
		"engine":   key("src", "f.mf", nascent.Options{BoundsChecks: true}, nascent.EngineVM),
	}
	keys := map[progcache.Key]string{base: "base"}
	for name, k := range variants {
		if prev, dup := keys[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		keys[k] = name
	}
	if key("src", "", nascent.Options{}, nascent.EngineVM) != key("src", "input.mf", nascent.Options{}, nascent.EngineVM) {
		t.Error("an empty filename must key like the default input.mf")
	}
}
