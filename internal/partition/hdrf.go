package partition

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// HDRF is High-Degree (are) Replicated First (Petroni et al., CIKM 2015),
// the paper's state-of-the-art one-pass baseline. For each edge it scores
// every partition with a replication term that prefers partitions already
// holding an endpoint - weighted so the LOWER-degree endpoint counts more,
// which steers cuts toward high-degree vertices - plus a balance term, and
// picks the argmax, the lowest index among equal scores:
//
//	theta(u)   = delta(u) / (delta(u)+delta(v))          (partial degrees)
//	g(u,p)     = 1 + (1 - theta(u))  if p holds u, else 0
//	C_rep(p)   = g(u,p) + g(v,p)
//	C_bal(p)   = BalanceWeight * (maxsize - |p|) / (eps + maxsize - minsize)
//
// Like Greedy it keeps the full P(v) table, the O(k|V|) state Figure 6
// charges the heuristics with. It does not price all k partitions per
// edge, though. C_rep takes one value per replica class (p holds both
// endpoints, u only, v only, or neither), and C_bal does not increase with
// |p|, so the argmax is the best of at most four candidates: each class's
// lowest-index partition at the class's smallest size. A class of at most
// hdrfDirect partitions is priced member by member; a larger one finds its
// candidate in per-size partition bitsets (sizeLevels). Where a float tie
// between two sizes could hide a lower-index winner, the edge falls back to
// the full scan, so every assignment is the one the ascending scan over all
// k partitions picks (TestHDRFMatchesFullScan, FuzzHDRFMatchesScan).
//
// An HDRF value keeps its replica table, degree table, sizes and levels as
// scratch reused across runs; the per-edge loop is allocation-free.
type HDRF struct {
	// BalanceWeight is the lambda of the HDRF paper (its default 1.1 keeps
	// near-perfect balance; larger trades quality for balance). Zero means
	// 1.1; negative, NaN and infinite values are rejected.
	BalanceWeight float64

	rs     metrics.ReplicaSets
	deg    []uint32
	sizes  []int64
	levels sizeLevels
	// certSpread is certifiedSpread(lambda) for the current run.
	certSpread int64
	// fallbacks counts the edges of the last run priced by the full scan.
	fallbacks int
}

const (
	hdrfEps = 1.0
	// hdrfDirect is the largest class priced member by member; a larger
	// class takes its candidate from the size levels.
	hdrfDirect = 8
)

// Name implements Partitioner.
func (h *HDRF) Name() string { return "HDRF" }

// PreferredOrder implements Partitioner.
func (h *HDRF) PreferredOrder() stream.Order { return stream.Random }

// lambda returns the balance weight a run uses.
func (h *HDRF) lambda() (float64, error) {
	lam := h.BalanceWeight
	if lam == 0 {
		return 1.1, nil
	}
	if !(lam > 0) || math.IsInf(lam, 1) {
		return 0, fmt.Errorf("partition: HDRF BalanceWeight must be finite and >= 0, got %v", lam)
	}
	return lam, nil
}

func (h *HDRF) run(src stream.Source, k int, sink *assignSink) error {
	lam, err := h.lambda()
	if err != nil {
		return err
	}
	h.rs.Reset(src.NumVertices(), k)
	h.deg = resetUint32(h.deg, src.NumVertices())
	h.sizes = resetInt64(h.sizes, k)
	h.levels.reset(k)
	h.certSpread = certifiedSpread(lam)
	h.fallbacks = 0
	rs, deg := &h.rs, h.deg

	err = forEachBlock(src, func(blk []graph.Edge) error {
		out := sink.grab(len(blk))
		for j, e := range blk {
			u, v := e.Src, e.Dst
			deg[u]++
			deg[v]++
			du, dv := float64(deg[u]), float64(deg[v])
			thetaU := du / (du + dv)
			thetaV := 1 - thetaU
			gU := 1 + (1 - thetaU)
			gV := 1 + (1 - thetaV)
			best := h.choose(u, v, gU, gV, lam)
			out[j] = int32(best)
			h.place(best)
			rs.Add(u, best)
			rs.Add(v, best)
		}
		return sink.commit(blk, out)
	})
	sink.hold(rs.Bytes() + 4*int64(cap(deg)) + 8*int64(cap(h.sizes)+cap(h.levels.ring)))
	return err
}

// place counts one more edge on partition p.
func (h *HDRF) place(p int) {
	h.levels.inc(p, h.sizes[p])
	h.sizes[p]++
}

// choose returns the partition for edge (u, v): the first partition with
// the highest score, exactly as scan computes it.
func (h *HDRF) choose(u, v graph.VertexID, gU, gV, lam float64) int {
	lv, words, sizes := &h.levels, h.levels.words, h.sizes
	spread := lv.max - lv.min
	if spread > math.MaxUint32 {
		// Beyond the reach of the packed keys below.
		h.fallbacks++
		return h.scan(u, v, gU, gV, lam)
	}
	// Per replica class (bit 0: holds u, bit 1: holds v): the smallest
	// (size-min)<<32 | index, which is the lowest-index member of the
	// smallest size, or MaxUint64 for an empty class. A class of more than
	// hdrfDirect members is large, and the levels price it below; the
	// others are priced member by member in the same pass over the words.
	key := [4]uint64{math.MaxUint64, math.MaxUint64, math.MaxUint64, math.MaxUint64}
	var n [4]int
	var large uint
	for w := 0; w < words; w++ {
		wu, wv := h.rs.Word(u, w), h.rs.Word(v, w)
		direct := lv.valid(w)
		if len(sizes) > hdrfDirect {
			for c, m := range [4]uint64{^(wu | wv) & direct, wu &^ wv, wv &^ wu, wu & wv} {
				if n[c] += bits.OnesCount64(m); n[c] > hdrfDirect {
					direct &^= m
					large |= 1 << c
				}
			}
		}
		for ; direct != 0; direct &= direct - 1 {
			i := bits.TrailingZeros64(direct)
			p := w<<6 + i
			c := int(wu>>uint(i)&1 | wv>>uint(i)&1<<1)
			key[c] = min(key[c], uint64(sizes[p]-lv.min)<<32|uint64(p))
		}
	}
	// A large class's smallest members sit on the first level up from min
	// that holds any member, the lowest-index one first.
	for s := lv.min; large != 0; s++ {
		level := lv.level(s)
		for l := large; l != 0; l &= l - 1 {
			c := bits.TrailingZeros(l)
			for w, x := range level {
				if x &= h.classMask(c, u, v, w); x != 0 {
					key[c] = uint64(s-lv.min)<<32 | uint64(w<<6+bits.TrailingZeros64(x))
					large &^= 1 << c
					break
				}
			}
		}
	}

	d := hdrfEps + float64(spread)
	best, bestScore := 0, -1.0
	for c := range key {
		if key[c] == math.MaxUint64 {
			continue
		}
		p := int(key[c] & math.MaxUint32)
		score := hdrfScore(c, gU, gV, lam, spread-int64(key[c]>>32), d)
		if score > bestScore || score == bestScore && p < best {
			best, bestScore = p, score
		}
	}
	// The certificate: a class tying the best score must score strictly
	// less one size up, or a larger lower-index member may tie as well.
	// Up to certSpread that holds for every class (see certifiedSpread).
	if spread <= h.certSpread {
		return best
	}
	for c := range key {
		x := spread - int64(key[c]>>32)
		if key[c] != math.MaxUint64 && x > 0 && hdrfScore(c, gU, gV, lam, x, d) == bestScore &&
			hdrfScore(c, gU, gV, lam, x-1, d) == bestScore {
			h.fallbacks++
			return h.scan(u, v, gU, gV, lam)
		}
	}
	return best
}

// hdrfScore is C_rep + C_bal for a partition of replica class c whose size
// is x below maxsize, with d = eps + maxsize - minsize.
func hdrfScore(c int, gU, gV, lam float64, x int64, d float64) float64 {
	var crep float64
	if c&1 != 0 {
		crep += gU
	}
	if c&2 != 0 {
		crep += gV
	}
	return crep + lam*float64(x)/d
}

// certifiedSpread returns the largest spread max-min at which every
// replica class scores strictly less one size up, so the certificate in
// choose holds without pricing L+1; -1 where the bound does not apply.
// With spread S at most that, d = eps+S <= lam*2^48/(4+2lam) <= 2^47. For
// 1 <= x <= S, C_bal's rounded values A at x and B at x-1 are each within
// a factor (1+-u)^2 of the exact lam*x/d and lam*(x-1)/d (u = 2^-53), so
// A-B >= (1-4u*x)lam/d >= (15/16)lam/d. Adding C_rep <= 4 rounds either
// sum by at most u(4+1.01lam), and A-B exceeds twice that, so C_rep+A >
// C_rep+B after rounding. The limits on lam keep lam*x clear of overflow
// and lam*x/d clear of subnormals, where the relative error bound fails.
func certifiedSpread(lam float64) int64 {
	if lam < 0x1p-900 || lam > 0x1p900 {
		return -1
	}
	return int64(lam*0x1p48/(4+2*lam)) - 1
}

// classMask returns replica class c's members among partitions
// 64w..64w+63.
func (h *HDRF) classMask(c int, u, v graph.VertexID, w int) uint64 {
	wu, wv := h.rs.Word(u, w), h.rs.Word(v, w)
	if c&1 == 0 {
		wu = ^wu
	}
	if c&2 == 0 {
		wv = ^wv
	}
	return wu & wv & h.levels.valid(w)
}

// scan prices all k partitions for edge (u, v) and returns the first one
// with the highest score.
func (h *HDRF) scan(u, v graph.VertexID, gU, gV, lam float64) int {
	lv := &h.levels
	d := hdrfEps + float64(lv.max-lv.min)
	best, bestScore := 0, -1.0
	var wu, wv uint64
	for p, size := range h.sizes {
		if p&63 == 0 {
			wu, wv = h.rs.Word(u, p>>6), h.rs.Word(v, p>>6)
		}
		c := int(wu>>uint(p&63)&1 | wv>>uint(p&63)&1<<1)
		if score := hdrfScore(c, gU, gV, lam, lv.max-size, d); score > bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// sizeLevels indexes partitions by size: one k-bit set per size level from
// min to max, the smallest and largest partition sizes. The levels live in
// a ring of a power-of-two number of slots, level s in slot s&mask, and
// every slot outside [min, max] is zero. An increment moves one bit up one
// level, so min and max stay exact without rescanning the sizes.
type sizeLevels struct {
	ring     []uint64
	words    int    // words per level
	top      uint64 // the partition bits of a level's last word
	mask     int64  // slots - 1
	min, max int64
}

// reset puts all k partitions at level 0.
func (l *sizeLevels) reset(k int) {
	const slots = 8
	l.words = (k + 63) / 64
	l.top = ^uint64(0) >> uint(-k&63)
	l.mask = slots - 1
	l.min, l.max = 0, 0
	n := slots * l.words
	if cap(l.ring) < n {
		l.ring = make([]uint64, n)
	}
	l.ring = l.ring[:n]
	clear(l.ring)
	for w := range l.words {
		l.ring[w] = l.valid(w)
	}
}

// valid returns the bits of word w that name partitions.
func (l *sizeLevels) valid(w int) uint64 {
	if w == l.words-1 {
		return l.top
	}
	return ^uint64(0)
}

// level returns the partitions of size s, for min <= s <= max.
func (l *sizeLevels) level(s int64) []uint64 {
	i := int(s&l.mask) * l.words
	return l.ring[i : i+l.words]
}

// inc moves partition p from level s to level s+1.
func (l *sizeLevels) inc(p int, s int64) {
	w, bit := p>>6, uint64(1)<<uint(p&63)
	l.ring[int(s&l.mask)*l.words+w] &^= bit
	if s == l.max {
		l.max++
		if l.max-l.min > l.mask {
			l.grow()
		}
	}
	l.ring[int((s+1)&l.mask)*l.words+w] |= bit
	if s == l.min && l.empty(s) {
		l.min++
	}
}

// empty reports whether no partition has size s.
func (l *sizeLevels) empty(s int64) bool {
	for _, x := range l.level(s) {
		if x != 0 {
			return false
		}
	}
	return true
}

// grow doubles the ring once max has moved a ring's width past min. Each
// level in [min, max) keeps its slot or moves one old width up; the new
// level max starts empty.
func (l *sizeLevels) grow() {
	width, n := l.mask+1, len(l.ring)
	l.ring = append(l.ring, make([]uint64, n)...)
	for s := l.min; s < l.max; s++ {
		if s&width != 0 {
			from := l.ring[int(s&l.mask)*l.words:][:l.words]
			copy(l.ring[int(s&l.mask)*l.words+n:][:l.words], from)
			clear(from)
		}
	}
	l.mask = 2*width - 1
}
