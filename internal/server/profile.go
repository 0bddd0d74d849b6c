package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"hbsp"
	"hbsp/cluster"
	"hbsp/internal/platform"
	"hbsp/sim"
)

// resolvedProfile is a ProfileSpec resolved for one sweep point: the machine
// to run on (shared, read-only, safe for concurrent runs) and the
// fingerprint feeding the cache key. Machines are cached per (fingerprint,
// procs): a profile machine is O(P) to build (the placement; pairs are priced
// on demand from per-class columns), so repeated points skip the build. An
// uploaded machine is its four P×P matrices, the only O(P²) entries of the
// cache.
type resolvedProfile struct {
	machine     sim.Machine
	fingerprint string
	// cluster is non-nil for profile-backed machines (preset or custom);
	// matrix uploads leave it nil, which is what gates the workloads that
	// need a kernel-rate model and the run seed (an upload has no noise
	// stream to seed).
	cluster *cluster.Machine
	// draws is a sweep request's noise-draw memo. Only the copy of a cached
	// entry that one of the request's points evaluates on carries it
	// (sweepDraws.of); the cached entry never does.
	draws *platform.TurnDraws
}

// seeded returns the machine a run with the given seed evaluates on: the
// profile machine seededCluster returns, or the uploaded machine as it is.
func (rp *resolvedProfile) seeded(seed int64) sim.Machine {
	if rp.cluster == nil {
		return rp.machine
	}
	return rp.seededCluster(seed)
}

// seededCluster returns the profile machine carrying the run seed and reading
// its draws through the sweep's memo, if any. rp must be profile-backed.
func (rp *resolvedProfile) seededCluster(seed int64) *cluster.Machine {
	return rp.cluster.WithRunSeed(seed).WithTurnDraws(rp.draws)
}

// sweepDrawBound is the most draws one sweep request's memo stores: 8 MiB,
// so the four sweeps the limiter admits at once by default hold 32 MiB.
const sweepDrawBound = 1 << 20

// newSweepDraws makes a sweep request's memo. It is a variable so that a
// test can see the memo or bound it lower.
var newSweepDraws = func(seed int64, ranks int) *platform.TurnDraws {
	return platform.NewTurnDraws(seed, ranks, sweepDrawBound)
}

// sweepDraws is the noise-draw memo of one sweep request. Every point of a
// sweep runs under the request's one seed, and a rank's stream does not
// depend on P, link scaling or payload, so a 64-point sweep would otherwise
// draw each (rank, seq) 64 times. The memo is made at the first point the
// request evaluates on the direct routes on a noisy profile-backed machine —
// a sweep answered from the cache, on a noise-free or uploaded machine, or on
// the session, makes none — is read through by that point and every later
// one, and is dropped with the request; its counts reach /metrics once, when
// the request ends. The request's goroutine alone calls of, its points
// running one at a time: they take turns (platform.TurnDraws).
type sweepDraws struct {
	ranks int // the sweep's largest procs
	d     *platform.TurnDraws
}

// of returns rp as the point of workload w under options o and seed
// evaluates on: rp itself, or a copy carrying the request's memo.
func (sd *sweepDraws) of(o *OptionsSpec, w *WorkloadSpec, rp *resolvedProfile, seed int64) *resolvedProfile {
	if sd == nil || rp.cluster == nil || rp.cluster.Profile().NoiseRel <= 0 || routeOf(o, w, rp) == routeSession {
		return rp
	}
	if sd.d == nil {
		sd.d = newSweepDraws(seed, sd.ranks)
	}
	c := *rp
	c.draws = sd.d
	return &c
}

// resolveProfile builds (or fetches) the machine for one point. scale is the
// point's LogGP scaling (identity allowed); procs the point's rank count.
func (s *Server) resolveProfile(spec *ProfileSpec, scale ScaleSpec, procs int) (*resolvedProfile, error) {
	set := 0
	if spec.Preset != "" {
		set++
	}
	if spec.Custom != nil {
		set++
	}
	if spec.Matrices != nil {
		set++
	}
	if set != 1 {
		return nil, badRequestf("profile must set exactly one of preset, custom or matrices")
	}
	if procs < 1 {
		return nil, badRequestf("procs must be >= 1, got %d", procs)
	}

	if spec.Matrices != nil {
		if !scale.identity() {
			return nil, badRequestf("sweep.scale applies to link classes and is not supported for uploaded matrices")
		}
		return s.resolveMatrices(spec.Matrices, procs)
	}

	prof, err := s.profileFor(spec, procs)
	if err != nil {
		return nil, err
	}
	if !scale.identity() {
		prof = scaleProfile(prof, scale.normalized())
	}
	fp := prof.Fingerprint()
	key := fmt.Sprintf("machine/%s/p%d", fp, procs)
	if cached, ok := s.machines.Get(key); ok {
		return cached.(*resolvedProfile), nil
	}
	m, err := prof.Machine(procs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", hbsp.ErrInvalidMachine, err)
	}
	rp := &resolvedProfile{machine: m, fingerprint: fp, cluster: m}
	s.machines.Put(key, rp)
	return rp, nil
}

// profileFor resolves the preset or custom profile of a spec.
func (s *Server) profileFor(spec *ProfileSpec, procs int) (*cluster.Profile, error) {
	if spec.Custom != nil {
		return buildCustomProfile(spec.Custom)
	}
	switch spec.Preset {
	case "xeon-cluster":
		nodes := spec.Nodes
		if nodes == 0 {
			nodes = (procs + 7) / 8
			if nodes < 8 {
				nodes = 8
			}
		}
		if nodes < 1 {
			return nil, badRequestf("profile.nodes must be >= 1, got %d", nodes)
		}
		return cluster.XeonCluster(nodes), nil
	case "flat-cluster":
		nodes := spec.Nodes
		if nodes == 0 {
			nodes = procs
		}
		if nodes < 1 {
			return nil, badRequestf("profile.nodes must be >= 1, got %d", nodes)
		}
		return cluster.FlatCluster(nodes), nil
	}
	if p, ok := cluster.Presets()[spec.Preset]; ok {
		if spec.Nodes != 0 {
			return nil, badRequestf("profile.nodes only applies to the parametric presets (xeon-cluster, flat-cluster)")
		}
		return p, nil
	}
	return nil, badRequestf("unknown preset %q (GET /v1/presets lists them)", spec.Preset)
}

// presetNames returns the catalog of preset names, fixed presets first, then
// the parametric ones, each sorted — the deterministic /v1/presets listing.
func presetNames() []string {
	var names []string
	for name := range cluster.Presets() {
		names = append(names, name)
	}
	sort.Strings(names)
	return append(names, "flat-cluster", "xeon-cluster")
}

// buildCustomProfile turns an uploaded CustomProfile into a validated
// cluster.Profile. Validation errors wrap hbsp.ErrInvalidMachine — the same
// sentinel a broken preset would surface at hbsp.New.
func buildCustomProfile(c *CustomProfile) (*cluster.Profile, error) {
	name := c.Name
	if name == "" {
		name = "custom"
	}
	var policy cluster.PlacementPolicy
	switch c.Policy {
	case "", "roundrobin":
		policy = cluster.RoundRobin
	case "block":
		policy = cluster.Block
	default:
		return nil, badRequestf("unknown placement policy %q (roundrobin or block)", c.Policy)
	}
	core, err := resolveCore(c)
	if err != nil {
		return nil, err
	}
	links := map[cluster.Distance]cluster.Link{}
	for class, l := range c.Links {
		var d cluster.Distance
		switch class {
		case "socket":
			d = cluster.DistanceSocket
		case "node":
			d = cluster.DistanceNode
		case "network":
			d = cluster.DistanceNetwork
		case "group":
			d = cluster.DistanceGroup
		default:
			return nil, badRequestf("unknown link class %q (socket, node, network, group)", class)
		}
		links[d] = cluster.Link{Latency: l.Latency, Gap: l.Gap, Beta: l.Beta, Overhead: l.Overhead}
	}
	prof := &cluster.Profile{
		Name: name,
		Topology: cluster.Topology{
			Nodes:          c.Topology.Nodes,
			SocketsPerNode: c.Topology.SocketsPerNode,
			CoresPerSocket: c.Topology.CoresPerSocket,
			NodesPerGroup:  c.Topology.NodesPerGroup,
		},
		Policy:       policy,
		Cores:        []cluster.Core{core},
		Links:        links,
		SelfOverhead: c.SelfOverhead,
		HeteroSpread: c.HeteroSpread,
		NoiseRel:     c.NoiseRel,
		Seed:         c.Seed,
	}
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", hbsp.ErrInvalidMachine, err)
	}
	return prof, nil
}

// resolveCore picks the uploaded profile's core design: an inline spec, a
// named built-in core, or the Xeon default.
func resolveCore(c *CustomProfile) (cluster.Core, error) {
	if c.CoreSpec != nil {
		core := cluster.Core{
			Name:          c.CoreSpec.Name,
			ClockGHz:      c.CoreSpec.ClockGHz,
			FlopsPerCycle: c.CoreSpec.FlopsPerCycle,
		}
		for _, l := range c.CoreSpec.Levels {
			core.Memory.Levels = append(core.Memory.Levels, cluster.Level{
				Name:                 l.Name,
				CapacityBytes:        l.CapacityBytes,
				BandwidthBytesPerSec: l.BandwidthBytesPerSec,
			})
		}
		return core, nil
	}
	want := c.Core
	if want == "" {
		want = "xeon-quad"
	}
	for _, p := range cluster.Presets() {
		for _, core := range p.Cores {
			if core.Name == want {
				return core, nil
			}
		}
	}
	return cluster.Core{}, badRequestf("unknown core design %q", want)
}

// scaleProfile returns a copy of the profile with every link class' LogGP
// parameters multiplied by the scaling's factors. The copy has its own Links
// map, so the source profile (possibly a shared preset) is never mutated.
// Scaling changes the fingerprint, so scaled points never alias unscaled
// cache entries.
func scaleProfile(p *cluster.Profile, s ScaleSpec) *cluster.Profile {
	return p.Scaled(s.Latency, s.Gap, s.Beta, s.Overhead)
}

// matrixMachine implements sim.Machine over uploaded pairwise matrices — four
// flat row-major p×p slices — and the engines' single pricing call (Pair)
// from the same elements: the return latency is the transposed entry, so
// asymmetric uploads keep their own ack leg. It carries no noise model
// (Noise ≡ 1) and no kernel-rate model, and is immutable after construction —
// safe for concurrent runs.
type matrixMachine struct {
	p                   int
	lat, gap, beta, ovh []float64
	selfOverhead        float64
	nic                 []int
}

func (m *matrixMachine) Procs() int                 { return m.p }
func (m *matrixMachine) Latency(i, j int) float64   { return m.lat[i*m.p+j] }
func (m *matrixMachine) Gap(i, j int) float64       { return m.gap[i*m.p+j] }
func (m *matrixMachine) Beta(i, j int) float64      { return m.beta[i*m.p+j] }
func (m *matrixMachine) Overhead(i, j int) float64  { return m.ovh[i*m.p+j] }
func (m *matrixMachine) SelfOverhead(i int) float64 { return m.selfOverhead }
func (m *matrixMachine) NIC(i int) int              { return m.nic[i] }
func (m *matrixMachine) Noise(int, uint64) float64  { return 1 }

func (m *matrixMachine) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	k := i*m.p + j
	return m.lat[k], m.gap[k], m.beta[k], m.ovh[k], m.lat[j*m.p+i], m.nic[i] == m.nic[j]
}

// resolveMatrices turns an uploaded MatrixProfile into a cached machine. The
// elements were checked by the scan that read them (Matrix.UnmarshalJSON);
// what is left needs the whole request: a defect a matrix recorded is
// reported under the matrix's name, the dimensions are held against procs
// and each other, and selfOverhead and the nic map are checked.
func (s *Server) resolveMatrices(spec *MatrixProfile, procs int) (*resolvedProfile, error) {
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", hbsp.ErrInvalidMachine, fmt.Sprintf(format, args...))
	}
	lat := &spec.Latency
	if lat.defect != "" {
		return nil, invalid("latency%s", lat.defect)
	}
	p := lat.n
	if p == 0 {
		return nil, invalid("latency matrix is required")
	}
	if procs != p {
		return nil, invalid("%d×%d matrices cannot serve procs=%d", p, p, procs)
	}
	// flat returns the elements of one of the other three matrices, all zero
	// for an optional matrix that is absent.
	flat := func(name string, m *Matrix, required bool) ([]float64, error) {
		switch {
		case m.defect != "":
			return nil, invalid("%s%s", name, m.defect)
		case m.v == nil && required:
			return nil, invalid("%s matrix is required", name)
		case m.v == nil:
			return make([]float64, p*p), nil
		case m.n != p:
			return nil, invalid("%s matrix has %d rows, want %d", name, m.n, p)
		}
		return m.v, nil
	}
	beta, err := flat("beta", &spec.Beta, true)
	if err != nil {
		return nil, err
	}
	gap, err := flat("gap", &spec.Gap, false)
	if err != nil {
		return nil, err
	}
	ovh, err := flat("overhead", &spec.Overhead, false)
	if err != nil {
		return nil, err
	}
	if lat.zero != 0 {
		return nil, invalid("latency[%d][%d] must be positive off the diagonal", (lat.zero-1)/p, (lat.zero-1)%p)
	}
	if !(spec.SelfOverhead > 0) || math.IsInf(spec.SelfOverhead, 0) {
		return nil, invalid("selfOverhead must be positive and finite")
	}
	nic := spec.NIC
	if nic == nil {
		nic = make([]int, p)
		for i := range nic {
			nic[i] = i
		}
	}
	if len(nic) != p {
		return nil, invalid("nic map has %d entries, want %d", len(nic), p)
	}

	m := &matrixMachine{p: p, lat: lat.v, gap: gap, beta: beta, ovh: ovh, selfOverhead: spec.SelfOverhead, nic: nic}
	fp := m.fingerprint()
	key := fmt.Sprintf("machine/%s/p%d", fp, procs)
	if cached, ok := s.machines.Get(key); ok {
		return cached.(*resolvedProfile), nil
	}
	rp := &resolvedProfile{machine: m, fingerprint: fp}
	s.machines.Put(key, rp)
	return rp, nil
}

// fingerprint hashes an uploaded machine the same way profile fingerprints
// work: a SHA-256 over a canonical byte serialization — a version tag, P, the
// four matrices' float bits row by row, selfOverhead, the nic map, every
// number as eight little-endian bytes. The bytes reach the hash in blocks,
// not one Write per number.
func (m *matrixMachine) fingerprint() string {
	h := sha256.New()
	var blk [32 << 10]byte
	n := 0
	u64 := func(v uint64) {
		if n == len(blk) {
			h.Write(blk[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(blk[n:], v)
		n += 8
	}
	h.Write([]byte("hbsp/server.MatrixProfile/v1"))
	u64(uint64(m.p))
	for _, mat := range [][]float64{m.lat, m.gap, m.beta, m.ovh} {
		for _, v := range mat {
			u64(math.Float64bits(v))
		}
	}
	u64(math.Float64bits(m.selfOverhead))
	for _, id := range m.nic {
		u64(uint64(int64(id)))
	}
	h.Write(blk[:n])
	return hex.EncodeToString(h.Sum(nil))
}
