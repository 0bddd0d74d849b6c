package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func samplePlan() *Plan {
	return &Plan{
		Seed: 7,
		Slowdowns: []Slowdown{
			{Rank: 3, Factor: 2, Start: 0},
			{Rank: 1, Factor: 1.5, Jitter: 0.2, Start: 1e-3, End: 2e-3},
		},
		Links: []LinkRule{
			{Src: -1, Dst: 2, Class: -1, LatencyFactor: 3, BetaFactor: 2, Start: 0},
			{Src: 0, Dst: -1, Class: 3, LatencyFactor: 1.5, BetaFactor: 1, Start: 1e-3, End: 4e-3},
		},
		FailStops: []FailStop{
			{Rank: 5, FailAt: 2e-3, Restart: 1e-3, Checkpoint: 5e-4},
			{Rank: 2, FailAt: 1e-3, Restart: 1e-3},
		},
	}
}

// TestPlanFingerprintStability pins that the hash is independent of the
// order rules were appended in (the canonical sort), and that nil and empty
// plans share one fixed fingerprint.
func TestPlanFingerprintStability(t *testing.T) {
	p := samplePlan()
	fp := p.Fingerprint()
	if len(fp) != 64 || strings.Trim(fp, "0123456789abcdef") != "" {
		t.Fatalf("fingerprint %q is not 64 hex chars", fp)
	}

	shuffled := samplePlan()
	shuffled.Slowdowns[0], shuffled.Slowdowns[1] = shuffled.Slowdowns[1], shuffled.Slowdowns[0]
	shuffled.Links[0], shuffled.Links[1] = shuffled.Links[1], shuffled.Links[0]
	shuffled.FailStops[0], shuffled.FailStops[1] = shuffled.FailStops[1], shuffled.FailStops[0]
	if got := shuffled.Fingerprint(); got != fp {
		t.Fatalf("rule order changed the fingerprint: %s vs %s", got, fp)
	}

	var nilPlan *Plan
	empty := &Plan{Seed: 42} // seed without rules injects nothing
	if nilPlan.Fingerprint() != empty.Fingerprint() {
		t.Fatal("nil and empty plans must share the no-faults fingerprint")
	}
	if nilPlan.Fingerprint() == fp {
		t.Fatal("empty plan collides with a populated plan")
	}
}

// TestNoFaultsFingerprintIsTheHashedTag holds the precomputed fingerprint of
// an empty plan to the hash it stands for, the SHA-256 of the plan tag alone,
// and every spelling of an empty plan to it.
func TestNoFaultsFingerprintIsTheHashedTag(t *testing.T) {
	sum := sha256.Sum256([]byte(planTag))
	if want := hex.EncodeToString(sum[:]); noFaultsFingerprint != want {
		t.Fatalf("noFaultsFingerprint = %s, the hashed tag is %s", noFaultsFingerprint, want)
	}
	for _, p := range []*Plan{nil, {}, {Seed: 42}} {
		if got := p.Fingerprint(); got != noFaultsFingerprint {
			t.Errorf("%+v: fingerprint %s, want %s", p, got, noFaultsFingerprint)
		}
	}
}

// TestPlanFingerprintSensitivity checks every rule field perturbs the hash.
func TestPlanFingerprintSensitivity(t *testing.T) {
	fp := samplePlan().Fingerprint()
	mutations := map[string]func(*Plan){
		"seed":            func(p *Plan) { p.Seed++ },
		"slowdown rank":   func(p *Plan) { p.Slowdowns[0].Rank = 4 },
		"slowdown factor": func(p *Plan) { p.Slowdowns[0].Factor = 3 },
		"slowdown jitter": func(p *Plan) { p.Slowdowns[1].Jitter = 0.3 },
		"slowdown window": func(p *Plan) { p.Slowdowns[1].End = 3e-3 },
		"link src":        func(p *Plan) { p.Links[0].Src = 1 },
		"link class":      func(p *Plan) { p.Links[1].Class = 2 },
		"link latency":    func(p *Plan) { p.Links[0].LatencyFactor = 4 },
		"link beta":       func(p *Plan) { p.Links[0].BetaFactor = 4 },
		"failstop rank":   func(p *Plan) { p.FailStops[0].Rank = 6 },
		"failstop at":     func(p *Plan) { p.FailStops[0].FailAt = 3e-3 },
		"failstop restart": func(p *Plan) {
			p.FailStops[1].Restart = 2e-3
		},
		"failstop checkpoint": func(p *Plan) { p.FailStops[0].Checkpoint = 1e-4 },
		"drop rule":           func(p *Plan) { p.Links = p.Links[:1] },
	}
	for name, mutate := range mutations {
		p := samplePlan()
		mutate(p)
		if got := p.Fingerprint(); got == fp {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
}
