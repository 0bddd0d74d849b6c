package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

// planTag opens every plan's hashed bytes.
const planTag = "hbsp/fault.Plan/v1"

// noFaultsFingerprint is the fingerprint of a nil or empty plan: the SHA-256
// of planTag alone, which every fault-free prediction's cache key carries.
const noFaultsFingerprint = "ec4caa759fd8e4bbe8eb26f0c6ad145fdefa1e7031b4c983438ac7574903a27a"

// Fingerprint returns a stable content hash of the plan. Rules are hashed in
// a canonical sort order — slowdowns by (rank, start), link rules by (src,
// dst, class, start), fail-stops by rank — so two plans describing the same
// scenario hash identically regardless of the order their rule slices were
// assembled in, and across processes. Together with the machine profile's
// fingerprint this forms the cache key of the prediction service: an empty
// (or nil) plan hashes to a fixed "no faults" value, and any rule change
// changes the hash.
func (p *Plan) Fingerprint() string {
	if p.Empty() {
		return noFaultsFingerprint
	}
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	h.Write([]byte(planTag))
	u64(uint64(p.Seed))

	slow := append([]Slowdown(nil), p.Slowdowns...)
	sort.Slice(slow, func(a, b int) bool {
		if slow[a].Rank != slow[b].Rank {
			return slow[a].Rank < slow[b].Rank
		}
		return slow[a].Start < slow[b].Start
	})
	u64(uint64(len(slow)))
	for _, s := range slow {
		u64(uint64(s.Rank))
		f64(s.Factor)
		f64(s.Jitter)
		f64(s.Start)
		f64(s.End)
	}

	links := append([]LinkRule(nil), p.Links...)
	sort.Slice(links, func(a, b int) bool {
		x, y := links[a], links[b]
		if x.Src != y.Src {
			return x.Src < y.Src
		}
		if x.Dst != y.Dst {
			return x.Dst < y.Dst
		}
		if x.Class != y.Class {
			return x.Class < y.Class
		}
		return x.Start < y.Start
	})
	u64(uint64(len(links)))
	for _, l := range links {
		u64(uint64(int64(l.Src)))
		u64(uint64(int64(l.Dst)))
		u64(uint64(int64(l.Class)))
		f64(l.LatencyFactor)
		f64(l.BetaFactor)
		f64(l.Start)
		f64(l.End)
	}

	stops := append([]FailStop(nil), p.FailStops...)
	sort.Slice(stops, func(a, b int) bool { return stops[a].Rank < stops[b].Rank })
	u64(uint64(len(stops)))
	for _, f := range stops {
		u64(uint64(f.Rank))
		f64(f.FailAt)
		f64(f.Restart)
		f64(f.Checkpoint)
	}

	return hex.EncodeToString(h.Sum(nil))
}
