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
	"hbsp/sim"
)

// resolvedProfile is a ProfileSpec resolved for one sweep point: the machine
// to run on (shared, read-only, safe for concurrent runs) and the
// fingerprint feeding the cache key. Machines are cached per (fingerprint,
// procs): a profile machine is O(P) to build (the placement; pairs are priced
// on demand from per-class columns), and handing repeated requests the same
// value lets a pooled sweep evaluator recognise its base machine.
type resolvedProfile struct {
	machine     sim.Machine
	fingerprint string
	// baseFingerprint is the fingerprint of the profile before the point's
	// LogGP scaling was applied (equal to fingerprint for unscaled points).
	// Scaled machines stay term-compatible with their base, so the sweep
	// evaluator pool keys on it: every scale point of one profile rides the
	// same evaluator and its memoized partitions.
	baseFingerprint string
	// cluster is non-nil for profile-backed machines (preset or custom);
	// matrix uploads leave it nil, which is what gates the workloads that
	// need a kernel-rate model.
	cluster *cluster.Machine
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
	baseFP := prof.Fingerprint()
	fp := baseFP
	if !scale.identity() {
		prof = scaleProfile(prof, scale.normalized())
		fp = prof.Fingerprint()
	}
	key := fmt.Sprintf("machine/%s/p%d", fp, procs)
	if cached, ok := s.machines.Get(key); ok {
		rp := cached.(*resolvedProfile)
		return rp, nil
	}
	m, err := prof.Machine(procs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", hbsp.ErrInvalidMachine, err)
	}
	rp := &resolvedProfile{machine: m, fingerprint: fp, baseFingerprint: baseFP, cluster: m}
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

// matrixMachine implements sim.Machine over uploaded pairwise matrices, and
// the engines' single pricing call (Pair) from the same rows — the return
// latency is the transposed entry, so asymmetric uploads keep their own ack
// leg. It carries no noise model (Noise ≡ 1) and no kernel-rate model, and is
// immutable after construction — safe for concurrent runs.
type matrixMachine struct {
	lat, gap, beta, ovh [][]float64
	selfOverhead        float64
	nic                 []int
}

func (m *matrixMachine) Procs() int                 { return len(m.lat) }
func (m *matrixMachine) Latency(i, j int) float64   { return m.lat[i][j] }
func (m *matrixMachine) Gap(i, j int) float64       { return m.gap[i][j] }
func (m *matrixMachine) Beta(i, j int) float64      { return m.beta[i][j] }
func (m *matrixMachine) Overhead(i, j int) float64  { return m.ovh[i][j] }
func (m *matrixMachine) SelfOverhead(i int) float64 { return m.selfOverhead }
func (m *matrixMachine) NIC(i int) int              { return m.nic[i] }
func (m *matrixMachine) Noise(int, uint64) float64  { return 1 }

func (m *matrixMachine) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	return m.lat[i][j], m.gap[i][j], m.beta[i][j], m.ovh[i][j], m.lat[j][i], m.nic[i] == m.nic[j]
}

// resolveMatrices validates and caches an uploaded matrix machine.
func (s *Server) resolveMatrices(spec *MatrixProfile, procs int) (*resolvedProfile, error) {
	p := len(spec.Latency)
	if p == 0 {
		return nil, fmt.Errorf("%w: latency matrix is required", hbsp.ErrInvalidMachine)
	}
	if procs != p {
		return nil, fmt.Errorf("%w: %d×%d matrices cannot serve procs=%d", hbsp.ErrInvalidMachine, p, p, procs)
	}
	square := func(name string, m [][]float64, required bool) ([][]float64, error) {
		if m == nil {
			if required {
				return nil, fmt.Errorf("%w: %s matrix is required", hbsp.ErrInvalidMachine, name)
			}
			rows := make([][]float64, p)
			for i := range rows {
				rows[i] = make([]float64, p)
			}
			return rows, nil
		}
		if len(m) != p {
			return nil, fmt.Errorf("%w: %s matrix has %d rows, want %d", hbsp.ErrInvalidMachine, name, len(m), p)
		}
		for i, row := range m {
			if len(row) != p {
				return nil, fmt.Errorf("%w: %s matrix row %d has %d entries, want %d", hbsp.ErrInvalidMachine, name, i, len(row), p)
			}
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return nil, fmt.Errorf("%w: %s[%d][%d] = %v must be finite and >= 0", hbsp.ErrInvalidMachine, name, i, j, v)
				}
			}
		}
		return m, nil
	}
	lat, err := square("latency", spec.Latency, true)
	if err != nil {
		return nil, err
	}
	beta, err := square("beta", spec.Beta, true)
	if err != nil {
		return nil, err
	}
	gap, err := square("gap", spec.Gap, false)
	if err != nil {
		return nil, err
	}
	ovh, err := square("overhead", spec.Overhead, false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j && lat[i][j] <= 0 {
				return nil, fmt.Errorf("%w: latency[%d][%d] must be positive off the diagonal", hbsp.ErrInvalidMachine, i, j)
			}
		}
	}
	if !(spec.SelfOverhead > 0) || math.IsInf(spec.SelfOverhead, 0) {
		return nil, fmt.Errorf("%w: selfOverhead must be positive and finite", hbsp.ErrInvalidMachine)
	}
	nic := spec.NIC
	if nic == nil {
		nic = make([]int, p)
		for i := range nic {
			nic[i] = i
		}
	}
	if len(nic) != p {
		return nil, fmt.Errorf("%w: nic map has %d entries, want %d", hbsp.ErrInvalidMachine, len(nic), p)
	}

	fp := matrixFingerprint(spec, lat, gap, beta, ovh, nic)
	key := fmt.Sprintf("machine/%s/p%d", fp, procs)
	if cached, ok := s.machines.Get(key); ok {
		return cached.(*resolvedProfile), nil
	}
	rp := &resolvedProfile{
		machine:         &matrixMachine{lat: lat, gap: gap, beta: beta, ovh: ovh, selfOverhead: spec.SelfOverhead, nic: nic},
		fingerprint:     fp,
		baseFingerprint: fp,
	}
	s.machines.Put(key, rp)
	return rp, nil
}

// matrixFingerprint hashes uploaded matrices the same way profile
// fingerprints work: a SHA-256 over a canonical byte serialization.
func matrixFingerprint(spec *MatrixProfile, lat, gap, beta, ovh [][]float64, nic []int) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	h.Write([]byte("hbsp/server.MatrixProfile/v1"))
	u64(uint64(len(lat)))
	for _, m := range [][][]float64{lat, gap, beta, ovh} {
		for _, row := range m {
			for _, v := range row {
				f64(v)
			}
		}
	}
	f64(spec.SelfOverhead)
	for _, n := range nic {
		u64(uint64(int64(n)))
	}
	return hex.EncodeToString(h.Sum(nil))
}
