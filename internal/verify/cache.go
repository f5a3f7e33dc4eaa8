package verify

import "crypto/sha256"

// Key addresses one check: the sha256 of the source text, the candidate
// assertion set and the normalised options (see cacheKey).
type Key = [sha256.Size]byte

// maxGenEntries bounds one cache generation. A two-generation cache keeps
// the current and the previous generation, so memory is capped at roughly
// twice this many entries while the recent working set (the fixes an
// evaluation or repair loop keeps re-checking) stays resident. An entry
// holds a Record (about 1 KiB); only a Service.Compile entry also holds
// its compiled design and plans. One-shot work (every check and compile of
// a dataset build) goes through Service.Run and the uncached Compile so it
// does not push the working set out.
const maxGenEntries = 4096

// gen2 is the two-generation map behind the Service's verdict cache. Not
// safe for concurrent use; the Service holds its own lock.
type gen2[V comparable] struct {
	cur, prev map[Key]V
	max       int
}

func newGen2[V comparable](max int) *gen2[V] {
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
