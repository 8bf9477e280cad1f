package core

// Structural step cache: content-addressed memoization of one Step.Run
// iteration (merge + Delay_Idle_Slots + chop). Real traces are dominated by
// repeated block structure — unrolled loops, repeated idioms — and the whole
// anticipatory scheduler is per-block work, so the second arrival of a block
// whose merge inputs are structurally identical to an earlier one should
// replay the earlier outcome instead of re-running merge/rank/chop.
//
// # Key
//
// A Step.Run outcome is a deterministic function of the view's content
// (node attributes and edges), the machine (unit counts and window), the
// carried suffix state (DOld/FOld/OldCount/OldMakespan), the release floors,
// and SkipDelay. Tie, Block, Tracer and Budget affect only tie-break input
// (see the canonical-layout precondition below), events, and cancellation —
// never the schedule — so they stay out of the key. The key is a 128-bit
// graph.Hasher sum over:
//
//   - the constants: view size, OldCount, OldMakespan, SkipDelay, window,
//     unit counts;
//   - the carried suffix fingerprint (see below), folding the whole suffix
//     into two words;
//   - the new nodes' exec/class attributes (their block is implied: one new
//     block, ordered after every suffix block);
//   - every edge of the view as (src, dst, latency) in view IDs — view IDs
//     are canonical positions, so relocated copies of the same structure
//     hash identically;
//   - the nonzero release floors as (view ID, floor) pairs.
//
// # Incremental suffix fingerprint
//
// The suffix half of the key is not re-hashed per step: when a miss runs the
// full Step, the outgoing suffix (the Plus set) is fingerprinted once —
// per node in ascending view-ID order (exactly the next view's prefix
// order): exec, class, dense block ordinal, carried deadline and finish
// (both chop-frame-relative) — and the sum is carried on the Step and
// stored in the fragment. A hit therefore carries the next suffix
// fingerprint in O(1), and a miss pays O(suffix); nothing ever re-hashes
// the suffix per lookup. Block numbers enter only as dense ordinals:
// every consumer of block numbers inside Step.Run (windowRealizable)
// compares them for order, so order-isomorphic relabelings — the same
// block structure at a different trace position — legitimately share a key.
//
// # Canonical layout precondition
//
// Caching requires the view to be in canonical layout: the carried suffix
// occupies view IDs [0, OldCount) in ascending previous-view order, the new
// block occupies [OldCount, N), and the rank tie-break is the identity
// permutation (program order). The trace walk (traceWalk.advance) checks
// this per block: every carried ID below every new ID and no custom Tie.
// It always holds on a stream, whose live store keeps the carried suffix
// first, and on a batch trace whose node IDs are grouped by block; the walk
// bypasses the cache otherwise. Bypassed or failed steps invalidate the
// carried fingerprint; the next full Run recomputes it from its output, so
// cache coverage resumes one miss later.
//
// # Fragment and relocation
//
// A cached value is a relocatable fragment: per-view-node start/unit/
// deadline (frame-relative, int32), the Minus/Plus permutations in view IDs,
// the chop base, and the successor suffix fingerprint. A hit replays in
// O(fragment) into Step-owned scratch — the same lifetime contract as
// StepOut's other fields — and the driver's existing commit path performs
// the relocation: view ID → original/stream ID through its ids array, frame
// cycle → absolute cycle through its time base. Steady-state hits allocate
// nothing.
//
// # Why a non-cryptographic 128-bit key is sound here
//
// The memo layer's Fingerprint uses SHA-256 because cache keys cross trust
// boundaries (any caller-built graph). Step keys never do: they are built
// from the scheduler's own iteration state, so only accidental collisions
// matter, and at 128 well-mixed bits those are birthday-bounded below any
// practical workload (see graph.Hash128). The differential tests and
// FuzzStepCache pin the end-to-end guarantee: cache-on and cache-off
// schedules are bit-identical.

import (
	"encoding/binary"

	"aisched/internal/graph"
	"aisched/internal/memo"
	"aisched/internal/metrics"
)

// mStepRelocations counts cache hits replayed by fragment relocation — the
// always-on companion to the step cache's hit/miss/evict counters
// (memo.StepMetrics).
var mStepRelocations = metrics.Default.NewCounter("aisched_stepcache_relocations_total",
	"step-cache hits replayed by fragment relocation (view-ID remap + frame retime)")

// Distinct hasher seeds for the two hash domains, so a step key can never
// collide with a suffix fingerprint by construction.
const (
	stepKeySeed  = 0x51e9cafe01
	suffixFPSeed = 0x51e9cafe02
)

// emptySuffixFP is the carried fingerprint of the empty suffix (OldCount 0):
// a fixed value distinct from any real suffix sum (real sums absorb at least
// the suffix length word under suffixFPSeed).
var emptySuffixFP = func() graph.Hash128 {
	var h graph.Hasher
	h.Reset(suffixFPSeed)
	return h.Sum()
}()

// StepCacheConfig sizes a StepCache. The zero value picks the memo layer's
// defaults (4096 fragments, 64 MiB); the lock-shard count is memo's default
// 16.
type StepCacheConfig struct {
	// Capacity is the total fragment budget (0 = default; the cache is
	// byte-bounded too, see MaxBytes).
	Capacity int
	// MaxBytes bounds approximate resident fragment bytes (0 = default
	// 64 MiB, negative = unbounded).
	MaxBytes int
}

// StepCache memoizes Step.Run outcomes as relocatable fragments. Safe for
// concurrent use: one cache is shared by every worker of a batch Scheduler
// (fragments are immutable once stored; each worker's Step replays into its
// own scratch).
type StepCache struct {
	c *memo.Cache
}

// NewStepCache builds a step cache.
func NewStepCache(cfg StepCacheConfig) *StepCache {
	return &StepCache{c: memo.New(memo.Config{
		Capacity: cfg.Capacity,
		MaxBytes: cfg.MaxBytes,
		Metrics:  memo.StepMetrics,
	})}
}

// Counters returns the cache's activity counters.
func (sc *StepCache) Counters() memo.Counters { return sc.c.Counters() }

// Release drops every resident fragment, returning their bytes to the
// process-wide gauge. Owners with bounded lifetimes (a closed stream) call
// this so the resident-bytes metric tracks live caches.
func (sc *StepCache) Release() { sc.c.Release() }

// stepFrag is one cached Step outcome. All cycles are chop-frame-relative
// and all node references are view IDs, which is what makes the fragment
// relocatable: the driver's ordinary commit path maps view IDs through its
// own ids array and adds its own time base. int32 everywhere: every stored
// quantity is bounded by the view's frame (starts, deadlines, units, view
// IDs), and fragments are resident state worth packing.
type stepFrag struct {
	n        int32
	start    []int32
	unit     []int32
	d        []int32
	minus    []int32 // committed prefix, schedule order
	plus     []int32 // carried suffix, schedule order
	base     int32
	repaired bool
	suffFP   graph.Hash128 // successor suffix fingerprint, carried on a hit
}

// ApproxBytes implements memo.Sizer for the byte-bounded LRU.
func (f *stepFrag) ApproxBytes() int {
	return 96 + 4*(len(f.start)+len(f.unit)+len(f.d)+len(f.minus)+len(f.plus))
}

// RunMemo is Step.Run behind the step cache, called once per block by the
// trace walk (traceWalk.advance). canonical reports that the caller
// guarantees the canonical layout precondition (see the package comment);
// when it is false, sc is nil, or a tracer wants per-pass events
// (a replayed hit emits none), the call falls through to Run and the carried
// fingerprint is invalidated. On a miss the full Run executes, the outgoing
// suffix is fingerprinted, and the outcome is stored; on a hit the fragment
// replays into Step-owned scratch — StepOut.S then aliases the Step like D,
// Minus and Plus, valid until the next Run or RunMemo.
func (st *Step) RunMemo(in *StepIn, sc *StepCache, canonical bool) (StepOut, error) {
	if sc == nil || !canonical || in.Tracer != nil {
		st.suffOK = false
		return st.Run(in)
	}
	if in.OldCount == 0 {
		st.suffFP = emptySuffixFP
		st.suffOK = true
	}
	if !st.suffOK {
		// The carried fingerprint was lost (a bypassed or failed step):
		// run fully and rebuild it from the output so the next step can
		// use the cache again.
		out, err := st.Run(in)
		if err != nil {
			return out, err
		}
		st.suffFP = st.suffixFP(in, &out)
		st.suffOK = true
		return out, nil
	}
	key := st.stepKey(in)
	if v, ok := sc.c.Get(key); ok {
		f := v.(*stepFrag)
		mStepRelocations.Inc()
		st.suffFP = f.suffFP
		return st.replay(in, f), nil
	}
	out, err := st.Run(in)
	if err != nil {
		st.suffOK = false
		return out, err
	}
	next := st.suffixFP(in, &out)
	sc.c.Put(key, fragOf(in, &out, next))
	st.suffFP = next
	return out, nil
}

// stepKey hashes the step's full input (see the package comment) into a
// memo key: the 128-bit sum fills the fingerprint's first 16 bytes.
func (st *Step) stepKey(in *StepIn) memo.Key {
	h := &st.keyH
	h.Reset(stepKeySeed)
	view := in.View
	n := view.N
	h.Int(n)
	h.Int(in.OldCount)
	h.Int(in.OldMakespan)
	if in.SkipDelay {
		h.Word(1)
	} else {
		h.Word(0)
	}
	h.Int(in.M.Window)
	h.Int(len(in.M.Units))
	for _, u := range in.M.Units {
		h.Int(u)
	}
	h.Word(st.suffFP.Lo)
	h.Word(st.suffFP.Hi)
	for si := in.OldCount; si < n; si++ {
		h.Int(int(view.Exec[si]))
		h.Int(int(view.Class[si]))
	}
	for si := 0; si < n; si++ {
		for ei := view.Off[si]; ei < view.Off[si+1]; ei++ {
			h.Int(si)
			h.Int(int(view.Dst[ei]))
			h.Int(int(view.Lat[ei]))
		}
	}
	if in.ROld != nil {
		for si := 0; si < n; si++ {
			if in.ROld[si] > 0 {
				h.Int(si)
				h.Int(in.ROld[si])
			}
		}
	}
	sum := h.Sum()
	k := memo.Key{Kind: memo.KindStep}
	binary.LittleEndian.PutUint64(k.FP[0:8], sum.Lo)
	binary.LittleEndian.PutUint64(k.FP[8:16], sum.Hi)
	return k
}

// suffixFP fingerprints the outgoing suffix of a completed step: the Plus
// nodes in ascending view-ID order — exactly the next view's prefix order —
// with their attributes, dense block ordinal, and carried deadline/finish
// rebased to the chop frame. O(view), paid once per miss.
func (st *Step) suffixFP(in *StepIn, out *StepOut) graph.Hash128 {
	n := in.View.N
	st.plusMask = growSlice(st.plusMask, n)
	mask := st.plusMask
	clear(mask)
	for _, si := range out.Plus {
		mask[si] = true
	}
	h := &st.keyH
	h.Reset(suffixFPSeed)
	h.Int(len(out.Plus))
	ord := -1
	var lastBlock int32
	for si := 0; si < n; si++ {
		if !mask[si] {
			continue
		}
		if ord < 0 || in.View.Block[si] != lastBlock {
			ord++
			lastBlock = in.View.Block[si]
		}
		h.Int(int(in.View.Exec[si]))
		h.Int(int(in.View.Class[si]))
		h.Int(ord)
		h.Int(out.D[si] - out.Base)
		h.Int(out.S.Finish(graph.NodeID(si)) - out.Base)
	}
	return h.Sum()
}

// fragOf freezes a completed step into an immutable fragment.
func fragOf(in *StepIn, out *StepOut, next graph.Hash128) *stepFrag {
	n := in.View.N
	f := &stepFrag{
		n:        int32(n),
		start:    make([]int32, n),
		unit:     make([]int32, n),
		d:        make([]int32, n),
		minus:    make([]int32, len(out.Minus)),
		plus:     make([]int32, len(out.Plus)),
		base:     int32(out.Base),
		repaired: out.Repaired,
		suffFP:   next,
	}
	for i := 0; i < n; i++ {
		f.start[i] = int32(out.S.Start[i])
		f.unit[i] = int32(out.S.Unit[i])
		f.d[i] = int32(out.D[i])
	}
	for i, v := range out.Minus {
		f.minus[i] = int32(v)
	}
	for i, v := range out.Plus {
		f.plus[i] = int32(v)
	}
	return f
}

// replay materializes a fragment into the Step's replay scratch. The view's
// exec array is aliased into the schedule so Finish and Makespan read the
// live view; starts, units and deadlines are widened out of the fragment.
func (st *Step) replay(in *StepIn, f *stepFrag) StepOut {
	n := in.View.N
	st.memoS.ResetView(in.M, n, in.View.Exec)
	for i := 0; i < n; i++ {
		st.memoS.Start[i] = int(f.start[i])
		st.memoS.Unit[i] = int(f.unit[i])
	}
	st.memoD = growSlice(st.memoD, n)
	for i := 0; i < n; i++ {
		st.memoD[i] = int(f.d[i])
	}
	st.memoMinus = growSlice(st.memoMinus, len(f.minus))
	for i, v := range f.minus {
		st.memoMinus[i] = graph.NodeID(v)
	}
	st.memoPlus = growSlice(st.memoPlus, len(f.plus))
	for i, v := range f.plus {
		st.memoPlus[i] = graph.NodeID(v)
	}
	return StepOut{
		S: &st.memoS, D: st.memoD,
		Minus: st.memoMinus, Plus: st.memoPlus,
		Base: int(f.base), Repaired: f.repaired,
	}
}
