package verify

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/verilog"
)

// Service runs checks behind the shared verdict cache, the optional
// persistent record store and the bounded worker pool. It is safe for
// concurrent use by any number of goroutines.
type Service struct {
	sem   chan struct{}
	store *DiskStore // optional persistent record tier; set before first use

	mu      sync.Mutex
	entries *gen2[*entry]

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
	diskHits  atomic.Uint64
	inFlight  atomic.Int64
}

// entry is one verdict-cache slot. The first requester starts the compute
// goroutine; every requester (owner included) counts as a waiter. The
// compute runs under its own context, cancelled only when the last waiter
// leaves before completion — at which point the entry is removed from the
// cache so the next requester recomputes on a fresh slot rather than
// observing a poisoned one.
type entry struct {
	done   chan struct{}
	cctx   context.Context
	cancel context.CancelFunc

	// waiters and completed are guarded by Service.mu; verdict and err are
	// published by close(done). verdict holds the Record (and, for a
	// Service.Compile key, the Design) only.
	waiters   int
	completed bool
	verdict   Verdict
	err       error
}

// New returns a service whose pool runs at most workers checks at once;
// workers <= 0 means GOMAXPROCS.
func New(workers int) *Service {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Service{
		sem:     make(chan struct{}, workers),
		entries: newGen2[*entry](maxGenEntries),
	}
}

var (
	defaultOnce sync.Once
	defaultSvc  *Service
)

// Default returns the process-wide shared service. All pipeline stages use
// it unless handed a dedicated instance, so a fix verified while judging
// responses is already cached when the repair loop re-verifies it.
func Default() *Service {
	defaultOnce.Do(func() { defaultSvc = New(0) })
	return defaultSvc
}

// SetStore attaches a persistent record tier: Check reads it after the
// verdict cache and before computing, and every check it completes is put
// to it before its waiters are answered. Disk hits
// are not copied into the verdict cache. Call before the service takes
// traffic; the field is not synchronised.
func (s *Service) SetStore(ds *DiskStore) { s.store = ds }

// Metrics is a snapshot of the service's counters.
type Metrics struct {
	// Hits counts requests answered from a completed cache entry.
	Hits uint64 `json:"hits"`
	// Misses counts computations started: one per unique in-flight key on
	// the cached path, one per call of the uncached Run.
	Misses uint64 `json:"misses"`
	// Coalesced counts requests that joined an in-flight computation
	// instead of starting their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts entries aged out by generation rotation.
	Evictions uint64 `json:"evictions"`
	// DiskHits counts Check requests answered by the persistent store.
	DiskHits uint64 `json:"disk_hits"`
	// InFlight is the number of checks currently holding a worker slot,
	// cached and uncached alike.
	InFlight int64 `json:"in_flight"`
	// Entries is the resident verdict-cache size (both generations).
	Entries int `json:"entries"`
}

// Metrics returns a snapshot of the service counters.
func (s *Service) Metrics() Metrics {
	return Metrics{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Coalesced: s.coalesced.Load(),
		Evictions: s.evictions.Load(),
		DiskHits:  s.diskHits.Load(),
		InFlight:  s.inFlight.Load(),
		Entries:   s.Len(),
	}
}

// Len returns the number of cache entries (both generations).
func (s *Service) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries.len()
}

// join finds the cache entry for a key, registering the caller as a
// waiter. The second return is true when the entry already existed: the
// caller must wait on done rather than start the compute. On a miss join
// installs a fresh entry if install is set and returns nil otherwise.
func (s *Service) join(key Key, install bool) (*entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries.get(key); ok {
		e.waiters++
		if e.completed {
			s.hits.Add(1)
		} else {
			s.coalesced.Add(1)
		}
		return e, true
	}
	if !install {
		return nil, false
	}
	cctx, cancel := context.WithCancel(context.Background())
	e := &entry{done: make(chan struct{}), cctx: cctx, cancel: cancel, waiters: 1}
	s.evictions.Add(uint64(s.entries.put(key, e)))
	s.misses.Add(1)
	return e, false
}

// leave deregisters a waiter that gave up before the entry completed.
// The last waiter leaving cancels the compute and removes the entry, so
// a later requester starts fresh instead of adopting a half-cancelled
// computation.
func (s *Service) leave(key Key, e *entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.waiters--
	if e.waiters == 0 && !e.completed {
		s.entries.remove(key, e)
		e.cancel()
	}
}

// wait blocks until the entry completes or ctx is cancelled. owner marks
// the requester that started the compute; everyone else observes the
// verdict as cached.
func (s *Service) wait(ctx context.Context, key Key, e *entry, owner bool) (Verdict, error) {
	select {
	case <-e.done:
	case <-ctx.Done():
		// The entry may have completed in the same instant; prefer the
		// result if it did.
		select {
		case <-e.done:
		default:
			s.leave(key, e)
			return Verdict{}, ctx.Err()
		}
	}
	v := e.verdict
	if !owner {
		v.Cached = true
	}
	return v, e.err
}

// pooled runs work on a worker slot. Waiting for the slot is abortable
// (cancellation while queued must not leak it), and the work counts in
// InFlight while it holds the slot. Work cut short by ctx reports ctx.Err()
// rather than a partial verdict.
func (s *Service) pooled(ctx context.Context, work func(context.Context) (Verdict, error)) (Verdict, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return Verdict{}, ctx.Err()
	}
	s.inFlight.Add(1)
	v, err := work(ctx)
	s.inFlight.Add(-1)
	<-s.sem
	if err != nil && ctx.Err() != nil {
		return Verdict{}, ctx.Err()
	}
	return v, err
}

// compute runs work for one cache entry on a worker slot under the entry's
// context, publishes the verdict work returns, puts its record to store
// (when store is non-nil) and only then releases the waiters, so an
// answered check has reached the operating system.
func (s *Service) compute(key Key, e *entry, work func(context.Context) (Verdict, error), store *DiskStore) {
	defer close(e.done)
	v, err := s.pooled(e.cctx, work)

	s.mu.Lock()
	if e.cctx.Err() != nil {
		// Every waiter left and the entry was removed; discard the result
		// (it may be a partial, cancelled check).
		e.err = e.cctx.Err()
		s.mu.Unlock()
		return
	}
	e.verdict, e.err = v, err
	e.completed = true
	s.mu.Unlock()
	e.cancel() // completed entries never cancel; release the context

	if store != nil && err == nil {
		_ = store.Put(key, &v.Record) // a failed put only costs a future recompute
	}
}

// Check compiles src and bounded-model-checks its assertions. When
// assertions is non-empty the module's own property/assert items are
// replaced by the given ones first (the SVA-candidate validation flow);
// otherwise the embedded assertions are checked. The returned error is
// non-nil only for StatusError verdicts and cancellations; compile
// failures and assertion failures are ordinary verdicts. Results are
// cached by content — source, assertion set and normalised options: Check
// answers from the verdict cache, then the store, and otherwise computes,
// coalescing concurrent duplicates into one computation that is cancelled
// only when its last waiter leaves. The verdict carries the Record and
// Cached (true unless this call ran the check).
func (s *Service) Check(ctx context.Context, src string, assertions []verilog.Item, opts Options) (Verdict, error) {
	key := cacheKey(src, assertions, opts)
	e, joined := s.join(key, s.store == nil)
	if e == nil { // not cached: the store answers before a computation starts
		if rec, err := s.store.Get(key); err == nil && rec != nil {
			s.diskHits.Add(1)
			return Verdict{Record: *rec, Cached: true}, nil
		}
		e, joined = s.join(key, true)
	}
	if !joined {
		go s.compute(key, e, func(ctx context.Context) (Verdict, error) {
			v, err := run(ctx, src, assertions, opts)
			return Verdict{Record: v.Record}, err
		}, s.store)
	}
	return s.wait(ctx, key, e, !joined)
}

// Compile is the package-level Compile behind the verdict cache and the
// worker pool: identical sources share one elaborated design, whose
// simulator plan is built under the worker slot, and concurrent duplicates
// coalesce as in Check. It never reads or writes the store. The verdict
// carries the Record, the shared Design (nil on a compile error) and Cached.
func (s *Service) Compile(ctx context.Context, src string) (Verdict, error) {
	key := compileKey(src)
	e, joined := s.join(key, true)
	if !joined {
		go s.compute(key, e, func(context.Context) (Verdict, error) {
			v := Compile(src)
			if v.Design != nil {
				sim.PlanOf(v.Design)
			}
			return Verdict{Record: v.Record, Design: v.Design}, nil
		}, nil)
	}
	return s.wait(ctx, key, e, !joined)
}

// CheckRecord is Check for callers that only need the serializable outcome.
func (s *Service) CheckRecord(ctx context.Context, src string, assertions []verilog.Item, opts Options) (Record, error) {
	v, err := s.Check(ctx, src, assertions, opts)
	return v.Record, err
}

// Run is Check without the cache: it runs one check on the service's
// worker pool and never reads or fills the verdict cache or the store, so
// the whole warm verdict it returns (design, plans, diagnostics, formal
// result) is garbage once the caller drops it. It counts as a miss. Use
// Run for one-shot checks (a dataset build's mutants) and wherever the warm
// parts are needed; use Check where the same key recurs or concurrent
// duplicates should coalesce. A Run's Record equals the Record Check
// returns for the same arguments.
func (s *Service) Run(ctx context.Context, src string, assertions []verilog.Item, opts Options) (Verdict, error) {
	s.misses.Add(1)
	return s.pooled(ctx, func(ctx context.Context) (Verdict, error) {
		return run(ctx, src, assertions, opts)
	})
}
