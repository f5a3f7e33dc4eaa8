package verify

import (
	"crypto/sha256"
	"sync"
)

// Key addresses one check: the sha256 of the source text, the candidate
// assertion set and the normalised options (see cacheKey).
type Key = [sha256.Size]byte

// Store holds serialized check records by content key. Implementations
// must be safe for concurrent use. Get returns (nil, nil) on a miss;
// errors are reserved for real faults (I/O, corruption), which callers
// treat as misses and recompute through.
type Store interface {
	Get(key Key) (*Record, error)
	Put(key Key, rec *Record) error
	Len() int
	Close() error
}

// maxGenEntries bounds one cache generation. A two-generation cache keeps
// the current and the previous generation, so memory is capped at roughly
// twice this many records while the recent working set (the fixes an
// evaluation or repair loop keeps re-checking) stays resident. The bound
// only caps the cache; it does not keep one-shot checks out of it. Up to
// 8,192 verdicts, each holding a compiled design and its plans, can stay
// resident, so one-shot checks (every check of a dataset build) go
// through Service.Run and never enter the cache.
const maxGenEntries = 4096

// gen2 is the two-generation map shared by the Service's verdict cache
// and MemStore. Not safe for concurrent use; callers hold their own lock.
type gen2[V comparable] struct {
	cur, prev map[Key]V
	max       int
}

func newGen2[V comparable](max int) *gen2[V] {
	if max <= 0 {
		max = maxGenEntries
	}
	return &gen2[V]{cur: make(map[Key]V), max: max}
}

// get finds a key in either generation, promoting previous-generation
// hits into the current one. The promoted slot is deleted from the old
// generation, so rotation never keeps two live references to one key and
// len stays an O(1) sum.
func (g *gen2[V]) get(k Key) (V, bool) {
	if v, ok := g.cur[k]; ok {
		return v, true
	}
	if v, ok := g.prev[k]; ok {
		delete(g.prev, k)
		g.cur[k] = v
		return v, true
	}
	var zero V
	return zero, false
}

// put installs k in the current generation. Inserting into a full current
// generation rotates it to previous, aging the oldest generation out;
// the return value is the number of entries dropped by the rotation.
func (g *gen2[V]) put(k Key, v V) int {
	evicted := 0
	if len(g.cur) >= g.max {
		evicted = len(g.prev)
		g.prev = g.cur
		g.cur = make(map[Key]V, g.max)
	}
	g.cur[k] = v
	return evicted
}

// remove deletes k from both generations, but only where it still maps to
// want: the identity check keeps a stale cancellation from evicting a
// fresh recomputation that reused the key.
func (g *gen2[V]) remove(k Key, want V) {
	if v, ok := g.cur[k]; ok && v == want {
		delete(g.cur, k)
	}
	if v, ok := g.prev[k]; ok && v == want {
		delete(g.prev, k)
	}
}

func (g *gen2[V]) len() int { return len(g.cur) + len(g.prev) }

// MemStore is the in-memory record store: the two-generation cache behind
// the Store interface. The zero value is not usable; use NewMemStore.
type MemStore struct {
	mu sync.Mutex
	g  *gen2[*Record]
}

// NewMemStore returns a memory store bounded at maxEntries records per
// generation (<= 0 means the package default).
func NewMemStore(maxEntries int) *MemStore {
	return &MemStore{g: newGen2[*Record](maxEntries)}
}

// Get returns the stored record, or (nil, nil) on a miss. The record is
// shared; callers must not mutate it.
func (m *MemStore) Get(key Key) (*Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, _ := m.g.get(key)
	return rec, nil
}

// Put stores a record. The store keeps the pointer; the caller must not
// mutate the record afterwards.
func (m *MemStore) Put(key Key, rec *Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.g.put(key, rec)
	return nil
}

// Len returns the number of resident records (both generations).
func (m *MemStore) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.g.len()
}

// Close releases nothing; memory stores have no external resources.
func (m *MemStore) Close() error { return nil }

// diskHitCounter is implemented by stores that can report how many Gets
// the persistent tier served; Tiered forwards it and Service.Metrics
// prefers it over its own store-hit count when available.
type diskHitCounter interface {
	DiskHits() uint64
}

// Tiered layers a fast store over a slow one: reads go through the fast
// tier and backfill it on a slow-tier hit (read-through); writes land in
// the fast tier immediately and drain to the slow tier from a background
// writer (write-behind). Close flushes the writer and closes both tiers.
type Tiered struct {
	fast, slow Store

	wg      sync.WaitGroup
	writes  chan tieredWrite
	errMu   sync.Mutex
	lastErr error
}

type tieredWrite struct {
	key Key
	rec *Record
}

// NewTiered returns a tiered store over fast and slow and starts its
// write-behind drain.
func NewTiered(fast, slow Store) *Tiered {
	t := &Tiered{fast: fast, slow: slow, writes: make(chan tieredWrite, 256)}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for w := range t.writes {
			if err := t.slow.Put(w.key, w.rec); err != nil {
				t.errMu.Lock()
				t.lastErr = err
				t.errMu.Unlock()
			}
		}
	}()
	return t
}

// Get reads through the tiers, backfilling the fast tier on a slow hit.
func (t *Tiered) Get(key Key) (*Record, error) {
	if rec, err := t.fast.Get(key); err == nil && rec != nil {
		return rec, nil
	}
	rec, err := t.slow.Get(key)
	if err != nil || rec == nil {
		return nil, err
	}
	_ = t.fast.Put(key, rec)
	return rec, nil
}

// Put stores into the fast tier immediately and queues the slow-tier
// write. When the queue is full the write happens synchronously rather
// than being dropped — persistence is the point of the slow tier.
func (t *Tiered) Put(key Key, rec *Record) error {
	if err := t.fast.Put(key, rec); err != nil {
		return err
	}
	select {
	case t.writes <- tieredWrite{key, rec}:
		return nil
	default:
		return t.slow.Put(key, rec)
	}
}

// Len reports the slow (authoritative) tier's record count.
func (t *Tiered) Len() int { return t.slow.Len() }

// DiskHits forwards the slow tier's hit count when it reports one.
func (t *Tiered) DiskHits() uint64 {
	if hc, ok := t.slow.(diskHitCounter); ok {
		return hc.DiskHits()
	}
	return 0
}

// Close drains pending write-behind work and closes both tiers. The
// first error observed (drain, fast close, slow close) is returned.
func (t *Tiered) Close() error {
	close(t.writes)
	t.wg.Wait()
	t.errMu.Lock()
	err := t.lastErr
	t.errMu.Unlock()
	if cerr := t.fast.Close(); err == nil {
		err = cerr
	}
	if cerr := t.slow.Close(); err == nil {
		err = cerr
	}
	return err
}
