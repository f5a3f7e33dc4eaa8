package corpus

import (
	"crypto/sha256"
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sync"
)

// This file is the procedural corpus generator: where Catalog() hard-codes
// a few dozen parameter choices, the generator samples each family
// archetype over its whole parameter space — widths, depths, state counts,
// pipeline stages, FIFO geometries, arbiter fan-ins — and over the reset
// polarity/encoding axis (variants.go), emitting as many content-distinct
// golden designs as requested. Every emitted blueprint carries the same
// derived SVAs, port docs, specification text and MinDepth as its catalog
// siblings, because it is built by the same family constructors.

// GenConfig configures a Generator.
type GenConfig struct {
	// Seed drives all sampling. The same seed always yields the same
	// designs in the same order, independent of how often or from how many
	// goroutines the generator is iterated.
	Seed int64
	// N is the number of content-distinct blueprints to emit.
	N int
	// Accept, when non-nil, validates a candidate before emission;
	// rejected candidates are resampled. It must be deterministic (the
	// augmentation pipeline verifies each candidate compiles and passes
	// its own assertions non-vacuously here).
	Accept func(*Blueprint) bool
	// Exclude lists content hashes that must never be emitted, e.g. the
	// fixed catalog when the generator supplements it.
	Exclude [][sha256.Size]byte
	// MaxAttempts bounds sampling (0 = 80*N + 512). The generator stops
	// early when the budget is exhausted before N designs were accepted.
	MaxAttempts int
}

// Generator procedurally samples golden designs. It implements Source.
type Generator struct {
	cfg GenConfig
}

// NewGenerator returns a generator for the given configuration.
func NewGenerator(cfg GenConfig) *Generator { return &Generator{cfg: cfg} }

// Name implements Source.
func (g *Generator) Name() string {
	return fmt.Sprintf("generator(seed=%d,n=%d)", g.cfg.Seed, g.cfg.N)
}

// Blueprints implements Source: it yields up to N content-distinct
// accepted blueprints. Each candidate is built from its own RNG derived
// from the generator seed and the attempt index, so the stream does not
// depend on how far previous iterations ran. Candidates are built and
// Accept-validated speculatively in parallel windows (Accept is required
// to be deterministic, so speculation changes nothing but wall-clock
// time); emission always follows attempt order. A candidate whose content
// an earlier window already produced is never emitted, so it skips Accept.
func (g *Generator) Blueprints() iter.Seq[*Blueprint] {
	return func(yield func(*Blueprint) bool) {
		maxAttempts := g.cfg.MaxAttempts
		if maxAttempts <= 0 {
			maxAttempts = 80*g.cfg.N + 512
		}
		window := runtime.GOMAXPROCS(0)
		if window < 1 {
			window = 1
		}
		seen := make(map[[sha256.Size]byte]bool, g.cfg.N+len(g.cfg.Exclude))
		for _, h := range g.cfg.Exclude {
			seen[h] = true
		}
		emitted := 0
		cands := make([]*Blueprint, window)
		hashes := make([][sha256.Size]byte, window)
		accepted := make([]bool, window)
		for base := 0; emitted < g.cfg.N && base < maxAttempts; base += window {
			k := window
			if base+k > maxAttempts {
				k = maxAttempts - base
			}
			var wg sync.WaitGroup
			for j := 0; j < k; j++ {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					b := sampleBlueprint(candidateRNG(g.cfg.Seed, base+j))
					cands[j], hashes[j] = b, b.ContentHash()
					// seen is written only between windows.
					accepted[j] = !seen[hashes[j]] && (g.cfg.Accept == nil || g.cfg.Accept(b))
				}(j)
			}
			wg.Wait()
			for j := 0; j < k && emitted < g.cfg.N; j++ {
				h := hashes[j]
				if seen[h] {
					continue
				}
				seen[h] = true // accepted or rejected, never revisit
				if !accepted[j] {
					continue
				}
				emitted++
				if !yield(cands[j]) {
					return
				}
			}
		}
	}
}

// candidateRNG derives the per-candidate RNG. A SplitMix64 step decorrelates
// consecutive attempt indices before they seed math/rand.
func candidateRNG(seed int64, attempt int) *rand.Rand {
	z := uint64(seed) + uint64(attempt+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// archetype is one family generator over its parameter space. hasReset
// marks families built on the canonical rst_n idiom, which admit the
// reset-variant axis.
type archetype struct {
	family   string
	hasReset bool
	build    func(r *rand.Rand) *Blueprint
}

// between samples an int uniformly from [lo, hi].
func between(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

// bitsFor returns the width needed to count 0..n-1 (minimum 1).
func bitsFor(n int) int {
	w := 1
	for (1 << uint(w)) < n {
		w++
	}
	return w
}

// archetypes lists every sampled family. Parameter ranges are chosen so
// that MinDepth stays within a practical bounded-check budget and the
// sampled space is orders of magnitude larger than any realistic N.
func archetypes() []archetype {
	return []archetype{
		{"counter", true, func(r *rand.Rand) *Blueprint {
			w := between(r, 3, 8)
			hi := (1 << uint(w)) - 1
			if hi > 56 {
				hi = 56
			}
			return Counter(w, uint64(between(r, 3, hi)))
		}},
		{"accu", true, func(r *rand.Rand) *Blueprint {
			return Accu(between(r, 2, 8), between(r, 1, 3))
		}},
		{"shift_reg", false, func(r *rand.Rand) *Blueprint {
			return ShiftReg(between(r, 2, 16))
		}},
		{"parity", false, func(r *rand.Rand) *Blueprint {
			return Parity(between(r, 2, 16))
		}},
		{"gray", false, func(r *rand.Rand) *Blueprint {
			return Gray(between(r, 3, 8))
		}},
		{"clkdiv", true, func(r *rand.Rand) *Blueprint {
			div := between(r, 2, 12)
			return ClkDiv(uint64(div), bitsFor(div))
		}},
		{"pwm", true, func(r *rand.Rand) *Blueprint {
			return PWM(between(r, 3, 8))
		}},
		{"sat_add", false, func(r *rand.Rand) *Blueprint {
			return SatAdd(between(r, 2, 10))
		}},
		{"max_track", true, func(r *rand.Rand) *Blueprint {
			return MinMax(between(r, 2, 8))
		}},
		{"cmp", false, func(r *rand.Rand) *Blueprint {
			return Comparator(between(r, 2, 10))
		}},
		{"onehot_ring", true, func(r *rand.Rand) *Blueprint {
			return OneHotRotate(between(r, 2, 8))
		}},
		{"lfsr", true, func(r *rand.Rand) *Blueprint {
			w := between(r, 3, 8)
			mask := uint64(1)<<uint(w) - 1
			taps := (r.Uint64() & mask) | uint64(1)<<uint(w-1)
			// The constructor names only the width; make the name a full
			// function of the parameters so name collisions imply
			// content collisions.
			return renamed(LFSR(w, taps), fmt.Sprintf("_t%x", taps))
		}},
		{"fsm_detect", true, func(r *rand.Rand) *Blueprint {
			pattern := make([]int, between(r, 3, 6))
			for i := range pattern {
				pattern[i] = r.Intn(2)
			}
			return FSMDetect(pattern)
		}},
		{"mux", false, func(r *rand.Rand) *Blueprint {
			return Mux(between(r, 2, 8), between(r, 2, 8))
		}},
		{"alu", false, func(r *rand.Rand) *Blueprint {
			return ALU(between(r, 2, 10), between(r, 2, 8))
		}},
		{"fifo", true, func(r *rand.Rand) *Blueprint {
			d := between(r, 2, 7)
			// The occupancy counter must be able to reach DEPTH.
			w := bitsFor(d+1) + r.Intn(3)
			return renamed(FIFOFlags(uint64(d), w), fmt.Sprintf("_w%d", w))
		}},
		{"regfile", true, func(r *rand.Rand) *Blueprint {
			return RegFile(between(r, 2, 10), between(r, 2, 8))
		}},
		{"priority_enc", false, func(r *rand.Rand) *Blueprint {
			return PriorityEnc(between(r, 2, 8))
		}},
		{"handshake", true, func(r *rand.Rand) *Blueprint {
			return Handshake(uint64(between(r, 1, 6)))
		}},
		{"pipeline", false, func(r *rand.Rand) *Blueprint {
			return Pipeline(between(r, 3, 28), between(r, 2, 12))
		}},
		{"rr_arb", true, func(r *rand.Rand) *Blueprint {
			return RoundRobinN(between(r, 2, 6))
		}},
		{"uart_tx", true, func(r *rand.Rand) *Blueprint {
			return UARTTx(between(r, 4, 8))
		}},
		{"crc", true, func(r *rand.Rand) *Blueprint {
			w := between(r, 3, 8)
			mask := uint64(1)<<uint(w) - 1
			poly := 1 + r.Uint64()%mask
			return renamed(CRC(w, poly), fmt.Sprintf("_p%x", poly))
		}},
		{"seq_mul", true, func(r *rand.Rand) *Blueprint {
			return SeqMultiplier(between(r, 2, 5))
		}},
		{"debounce", true, func(r *rand.Rand) *Blueprint {
			return Debouncer(uint64(between(r, 2, 6)))
		}},
		{"system", true, func(r *rand.Rand) *Blueprint {
			w := between(r, 4, 8)
			window := between(r, 2, 6)
			maxSum := window * ((1 << uint(w)) - 1)
			b := System(w, uint64(window), uint64(between(r, maxSum/4, maxSum*3/4)))
			return renamed(b, fmt.Sprintf("_n%d", window))
		}},
	}
}

// renamed appends a suffix to the module name, used where a family
// constructor does not encode every parameter in the name itself.
func renamed(b *Blueprint, suffix string) *Blueprint {
	b.Module.Name += suffix
	return b
}

// sampleBlueprint draws one candidate: an archetype, its parameters, and —
// for reset-bearing families — a reset polarity/encoding variant.
func sampleBlueprint(r *rand.Rand) *Blueprint {
	table := archetypes()
	a := table[r.Intn(len(table))]
	b := a.build(r)
	if a.hasReset {
		// Keep the canonical active-low asynchronous encoding dominant.
		switch r.Intn(8) {
		case 5:
			applyResetVariant(b, true, false)
		case 6:
			applyResetVariant(b, false, true)
		case 7:
			applyResetVariant(b, true, true)
		}
	}
	return b
}
