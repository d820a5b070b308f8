package lru

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// refLRU is the reference the cache is checked against: a slice of
// entries, most recently used first, searched linearly.
type refLRU struct {
	budget  int
	size    func(int, string) int
	items   []refEntry
	evicted []int
	hits    int
	misses  int
}

type refEntry struct {
	key  int
	val  string
	size int
}

func (r *refLRU) find(key int) int {
	for i, e := range r.items {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (r *refLRU) get(key int) (string, bool) {
	i := r.find(key)
	if i < 0 {
		r.misses++
		return "", false
	}
	r.hits++
	e := r.items[i]
	r.items = append([]refEntry{e}, append(r.items[:i:i], r.items[i+1:]...)...)
	return e.val, true
}

func (r *refLRU) put(key int, v string) {
	if i := r.find(key); i >= 0 {
		r.items = append(r.items[:i:i], r.items[i+1:]...)
	}
	size := 1
	if r.size != nil {
		size = r.size(key, v)
	}
	if r.budget > 0 && size > r.budget {
		return
	}
	r.items = append([]refEntry{{key, v, size}}, r.items...)
	for r.budget > 0 && r.used() > r.budget {
		last := r.items[len(r.items)-1]
		r.items = r.items[:len(r.items)-1]
		r.evicted = append(r.evicted, last.key)
	}
}

func (r *refLRU) used() int {
	n := 0
	for _, e := range r.items {
		n += e.size
	}
	return n
}

// order lists c's stored entries most recently used first.
func order(c *Cache[int, string]) []refEntry {
	var out []refEntry
	for _, i := range recency(c) {
		out = append(out, refEntry{c.slots[i].key, c.slots[i].val, c.slots[i].size})
	}
	return out
}

// recency lists the slots in c's recency list, most recently used first.
func recency[K comparable, V any](c *Cache[K, V]) []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int32
	for i := int32(0); len(c.slots) > 0 && c.slots[i].next != 0; {
		i = c.slots[i].next
		out = append(out, i)
	}
	return out
}

// TestMatchesReference drives the cache and the reference LRU through the
// same seeded sequences of Get, Put and GetOrCompute (whose fill fails at
// times), with entry and size budgets, and checks after every step that
// both hold the same entries in the same recency order and that the cache
// evicted exactly the keys the reference did, in the same order.
func TestMatchesReference(t *testing.T) {
	sizeOf := func(k int, v string) int { return 1 + k%3 + len(v)%4 }
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := rng.Intn(12) // 0 = unbounded
		var size func(int, string) int
		if seed%2 == 0 {
			size = sizeOf
		}
		c := New[int, string](budget, size)
		ref := &refLRU{budget: budget, size: size}
		var evicted []int
		for step := 0; step < 400; step++ {
			key := rng.Intn(16)
			val := fmt.Sprint(rng.Intn(1000))
			before := order(c)
			switch op := rng.Intn(3); op {
			case 0:
				got, ok := c.Get(key)
				want, wok := ref.get(key)
				if got != want || ok != wok {
					t.Fatalf("seed %d step %d: Get(%d) = %q %v, want %q %v", seed, step, key, got, ok, want, wok)
				}
			case 1:
				c.Put(key, val)
				ref.put(key, val)
			case 2:
				fail := rng.Intn(4) == 0
				got, err := c.GetOrCompute(key, func() (string, error) {
					if fail {
						return "", errors.New("fill failed")
					}
					return val, nil
				})
				want, ok := ref.get(key)
				var wantErr bool
				if !ok {
					// The reference counts the fill's lookup as a miss
					// and stores what a successful fill returns.
					want, wantErr = val, fail
					if fail {
						want = ""
					} else {
						ref.put(key, val)
					}
				}
				if got != want || (err != nil) != wantErr {
					t.Fatalf("seed %d step %d: GetOrCompute(%d) = %q %v, want %q err=%v", seed, step, key, got, err, want, wantErr)
				}
			}
			after := order(c)
			kept := map[int]bool{}
			for _, e := range after {
				kept[e.key] = true
			}
			// Evictions go from the least recently used end of what the
			// cache held before the step.
			for i := len(before) - 1; i >= 0; i-- {
				if k := before[i].key; !kept[k] && k != key {
					evicted = append(evicted, k)
				}
			}
			if !reflect.DeepEqual(after, ref.items) && len(after)+len(ref.items) > 0 {
				t.Fatalf("seed %d step %d: cache holds %v, reference %v", seed, step, after, ref.items)
			}
			st := c.Stats()
			want := Stats{Hits: ref.hits, Misses: ref.misses, Evictions: len(ref.evicted),
				Len: len(ref.items), Size: ref.used(), Budget: budget}
			if st != want {
				t.Fatalf("seed %d step %d: stats %+v, want %+v", seed, step, st, want)
			}
		}
		// A step never evicts its own key, so the diffs above name every
		// eviction.
		if !reflect.DeepEqual(evicted, ref.evicted) && len(evicted)+len(ref.evicted) > 0 {
			t.Fatalf("seed %d: evicted %v, reference evicted %v", seed, evicted, ref.evicted)
		}
	}
}

// awaitHits waits until c has counted n hits: callers that found a fill
// pending count as hits before they wait on it.
func awaitHits[K comparable, V any](c *Cache[K, V], n int) {
	for c.Stats().Hits < n {
		runtime.Gosched()
	}
}

// TestGetOrComputeSingleFlight: callers that arrive while a key's fill is
// running wait for it and share its value; the fill runs once.
func TestGetOrComputeSingleFlight(t *testing.T) {
	const n = 8
	c := New[string, int](0, nil)
	var calls atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	fn := func() (int, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return 42, nil
	}
	got := make([]int, n)
	var wg sync.WaitGroup
	start := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrCompute("k", fn)
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}()
	}
	start(0)
	<-entered
	for i := 1; i < n; i++ {
		start(i)
	}
	awaitHits(c, n-1)
	if st := c.Stats(); st.Len != 0 || st.Size != 0 {
		t.Errorf("a pending fill is counted as stored: %+v", st)
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("fill ran %d times, want 1", calls.Load())
	}
	for i, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d", i, v)
		}
	}
	if st := c.Stats(); st.Hits != n-1 || st.Misses != 1 || st.Len != 1 {
		t.Errorf("stats %+v, want %d hits, 1 miss, 1 entry", st, n-1)
	}
}

// TestGetOrComputeFailedFill: a failed fill stores nothing, and each
// caller that waited on it computes for itself.
func TestGetOrComputeFailedFill(t *testing.T) {
	const n = 6
	for _, panics := range []bool{false, true} {
		c := New[string, int](0, nil)
		var calls atomic.Int32
		entered, release := make(chan struct{}), make(chan struct{})
		fn := func() (int, error) {
			if calls.Add(1) == 1 {
				close(entered)
				<-release
				if panics {
					panic("fill panicked")
				}
				return 0, errors.New("fill failed")
			}
			return 7, nil
		}
		errs := make([]error, n)
		var wg sync.WaitGroup
		start := func(i int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						errs[i] = fmt.Errorf("%v", p)
					}
				}()
				v, err := c.GetOrCompute("k", fn)
				if err == nil && v != 7 {
					err = fmt.Errorf("got %d", v)
				}
				errs[i] = err
			}()
		}
		start(0)
		<-entered
		for i := 1; i < n; i++ {
			start(i)
		}
		awaitHits(c, n-1)
		close(release)
		wg.Wait()
		if errs[0] == nil {
			t.Errorf("panics=%v: the failed fill's caller got no error", panics)
		}
		for i := 1; i < n; i++ {
			if errs[i] != nil {
				t.Errorf("panics=%v: waiter %d: %v", panics, i, errs[i])
			}
		}
		if calls.Load() != n {
			t.Errorf("panics=%v: fn ran %d times, want once per caller (%d)", panics, calls.Load(), n)
		}
		if st := c.Stats(); st.Hits != 0 || st.Misses != n || st.Len != 1 {
			t.Errorf("panics=%v: stats %+v, want %d misses and the waiters' value stored", panics, st, n)
		}
	}
}

// TestGetOrComputeRace runs many callers over a few keys of a small cache,
// so fills, hits, evictions and Puts interleave; run it under -race.
func TestGetOrComputeRace(t *testing.T) {
	c := New[int, int](3, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % 5
				switch i % 4 {
				case 0:
					c.Put(k, k*10)
				case 1:
					if v, ok := c.Get(k); ok && v != k*10 {
						t.Errorf("Get(%d) = %d", k, v)
					}
				default:
					v, err := c.GetOrCompute(k, func() (int, error) {
						if i%7 == 0 {
							return 0, errors.New("fail")
						}
						return k * 10, nil
					})
					if err == nil && v != k*10 {
						t.Errorf("GetOrCompute(%d) = %d", k, v)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Len > 3 || st.Size != st.Len || len(recency(c)) != st.Len {
		t.Errorf("after the race: %+v, %d linked", st, len(recency(c)))
	}
}
