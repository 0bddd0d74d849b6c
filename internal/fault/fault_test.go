package fault

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		plan  *Plan
		procs int
	}{
		{"nil plan", nil, 4},
		{"no ranks", &Plan{}, 0},
		{"slowdown rank out of range", &Plan{Slowdowns: []Slowdown{{Rank: 4, Factor: 2}}}, 4},
		{"slowdown negative rank", &Plan{Slowdowns: []Slowdown{{Rank: -1, Factor: 2}}}, 4},
		{"slowdown zero factor", &Plan{Slowdowns: []Slowdown{{Rank: 0}}}, 4},
		{"slowdown NaN factor", &Plan{Slowdowns: []Slowdown{{Rank: 0, Factor: math.NaN()}}}, 4},
		{"slowdown negative jitter", &Plan{Slowdowns: []Slowdown{{Rank: 0, Factor: 2, Jitter: -1}}}, 4},
		{"slowdown empty window", &Plan{Slowdowns: []Slowdown{{Rank: 0, Factor: 2, Start: 5, End: 5}}}, 4},
		{"slowdown NaN end", &Plan{Slowdowns: []Slowdown{{Rank: 0, Factor: 2, Start: 1, End: math.NaN()}}}, 4},
		{"slowdown infinite start", &Plan{Slowdowns: []Slowdown{{Rank: 0, Factor: 2, Start: math.Inf(1)}}}, 4},
		{"slowdown overlapping windows", &Plan{Slowdowns: []Slowdown{
			{Rank: 0, Factor: 2, Start: 0, End: 3},
			{Rank: 0, Factor: 3, Start: 2, End: 5},
		}}, 4},
		{"slowdown open window shadowed", &Plan{Slowdowns: []Slowdown{
			{Rank: 0, Factor: 2},
			{Rank: 0, Factor: 3, Start: 1, End: 2},
		}}, 4},
		{"link src out of range", &Plan{Links: []LinkRule{{Src: 4, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2}}}, 4},
		{"link dst out of range", &Plan{Links: []LinkRule{{Src: -1, Dst: -2, Class: -1, LatencyFactor: 2, BetaFactor: 2}}}, 4},
		{"link class out of range", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: 256, LatencyFactor: 2, BetaFactor: 2}}}, 4},
		{"link zero latency factor", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: -1, BetaFactor: 2}}}, 4},
		{"link zero beta factor", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2}}}, 4},
		{"link empty window", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2, Start: 3, End: 1}}}, 4},
		{"link NaN end", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2, End: math.NaN()}}}, 4},
		{"link infinite start", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2, Start: math.Inf(1)}}}, 4},
		{"fail-stop rank out of range", &Plan{FailStops: []FailStop{{Rank: 9, FailAt: 1}}}, 4},
		{"fail-stop zero time", &Plan{FailStops: []FailStop{{Rank: 0}}}, 4},
		{"fail-stop negative restart", &Plan{FailStops: []FailStop{{Rank: 0, FailAt: 1, Restart: -1}}}, 4},
		{"fail-stop negative checkpoint", &Plan{FailStops: []FailStop{{Rank: 0, FailAt: 1, Checkpoint: -1}}}, 4},
		{"fail-stop duplicate rank", &Plan{FailStops: []FailStop{{Rank: 0, FailAt: 1}, {Rank: 0, FailAt: 2}}}, 4},
		{"slowdown factor past the bound", &Plan{Slowdowns: []Slowdown{{Rank: 0, Factor: 1.000001e12}}}, 4},
		{"slowdown jitter past the bound", &Plan{Slowdowns: []Slowdown{{Rank: 0, Factor: 2, Jitter: 1e300}}}, 4},
		{"link latency factor past the bound", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 1e13, BetaFactor: 2}}}, 4},
		{"link beta factor past the bound", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: math.MaxFloat64}}}, 4},
		{"fail-stop time past the bound", &Plan{FailStops: []FailStop{{Rank: 0, FailAt: 1e13}}}, 4},
		{"fail-stop restart past the bound", &Plan{FailStops: []FailStop{{Rank: 0, FailAt: 1, Restart: math.MaxFloat64}}}, 4},
		{"fail-stop checkpoint past the bound", &Plan{FailStops: []FailStop{{Rank: 0, FailAt: 1, Checkpoint: 2e12}}}, 4},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(tc.procs); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: want ErrInvalid, got %v", tc.name, err)
		}
	}

	tooMany := &Plan{}
	for i := 0; i <= maxLinkRules; i++ {
		tooMany.Links = append(tooMany.Links, LinkRule{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2})
	}
	if err := tooMany.Validate(4); !errors.Is(err, ErrInvalid) {
		t.Errorf("too many link rules: want ErrInvalid, got %v", err)
	}

	ok := &Plan{
		Slowdowns: []Slowdown{{Rank: 0, Factor: 2, Jitter: 0.1, Start: 0, End: 3}, {Rank: 0, Factor: 3, Start: 3}},
		Links:     []LinkRule{{Src: -1, Dst: 1, Class: -1, LatencyFactor: 1.5, BetaFactor: 4, Start: 1, End: 2}},
		FailStops: []FailStop{{Rank: 2, FailAt: 1, Restart: 0.5, Checkpoint: 0.25}},
	}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	atBound := &Plan{
		Slowdowns: []Slowdown{{Rank: 0, Factor: maxMagnitude, Jitter: maxMagnitude}},
		Links:     []LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: maxMagnitude, BetaFactor: maxMagnitude}},
		FailStops: []FailStop{{Rank: 1, FailAt: maxMagnitude, Restart: maxMagnitude, Checkpoint: maxMagnitude}},
	}
	if err := atBound.Validate(4); err != nil {
		t.Errorf("plan at the bound rejected: %v", err)
	}
}

func TestPenalty(t *testing.T) {
	cases := []struct {
		f    FailStop
		want float64
	}{
		{FailStop{FailAt: 10, Restart: 2}, 12},                       // no checkpoint: recompute everything
		{FailStop{FailAt: 10, Restart: 2, Checkpoint: 3}, 3},         // last checkpoint at 9 -> recompute 1
		{FailStop{FailAt: 10, Restart: 2, Checkpoint: 10}, 2},        // checkpoint exactly at FailAt
		{FailStop{FailAt: 10, Restart: 0, Checkpoint: 4}, 2},         // last checkpoint at 8
		{FailStop{FailAt: 0.5, Restart: 0.25, Checkpoint: 2}, 75e-2}, // interval longer than FailAt
	}
	for _, tc := range cases {
		if got := tc.f.Penalty(); got != tc.want {
			t.Errorf("Penalty(%+v) = %v, want %v", tc.f, got, tc.want)
		}
	}
}

func TestCompileEmptyPlan(t *testing.T) {
	for _, p := range []*Plan{nil, {}, {Seed: 99}} {
		rt, err := Compile(p, 4, nil)
		if err != nil || rt != nil {
			t.Errorf("Compile(%+v) = %v, %v; want nil, nil", p, rt, err)
		}
	}
	// An empty plan is still validated.
	if _, err := Compile(&Plan{}, 0, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty plan on zero ranks: want ErrInvalid, got %v", err)
	}
	// Class-matched rules need a pairClass resolver.
	p := &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: 3, LatencyFactor: 2, BetaFactor: 2}}}
	if _, err := Compile(p, 4, nil); !errors.Is(err, ErrInvalid) {
		t.Errorf("class rule without pairClass: want ErrInvalid, got %v", err)
	}
}

func TestSlowWindows(t *testing.T) {
	p := &Plan{Slowdowns: []Slowdown{
		{Rank: 1, Factor: 2, Start: 0, End: 10},
		{Rank: 1, Factor: 4, Start: 20},
	}}
	rt, err := Compile(p, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		now  float64
		want float64
	}{
		{0, 2}, {9.999, 2}, {10, 1}, {19.999, 1}, {20, 4}, {1e9, 4},
	} {
		if got := rt.Slow(1, 0, tc.now); got != tc.want {
			t.Errorf("Slow(1, 0, %v) = %v, want %v", tc.now, got, tc.want)
		}
	}
	// Untargeted ranks are untouched.
	if got := rt.Slow(0, 0, 5); got != 1 {
		t.Errorf("Slow(0, ...) = %v, want 1", got)
	}
}

func TestSlowJitterDeterministic(t *testing.T) {
	p := &Plan{Seed: 7, Slowdowns: []Slowdown{{Rank: 0, Factor: 2, Jitter: 0.5}}}
	a, err := Compile(p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	for seq := uint64(0); seq < 64; seq++ {
		va, vb := a.Slow(0, seq, 1), b.Slow(0, seq, 1)
		if va != vb {
			t.Fatalf("seq %d: %v vs %v across identical compiles", seq, va, vb)
		}
		if va < 2 {
			t.Fatalf("seq %d: jittered factor %v below base factor", seq, va)
		}
		if seq > 0 && va != a.Slow(0, 0, 1) {
			distinct = true
		}
	}
	if !distinct {
		t.Error("jitter draws are constant across the sequence")
	}
	// A different plan seed yields a different stream.
	p2 := &Plan{Seed: 8, Slowdowns: p.Slowdowns}
	c, err := Compile(p2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for seq := uint64(0); seq < 16; seq++ {
		if a.Slow(0, seq, 1) != c.Slow(0, seq, 1) {
			same = false
		}
	}
	if same {
		t.Error("seed change did not change the jitter stream")
	}
}

func TestLinkMatching(t *testing.T) {
	pairClass := func(i, j int) uint8 {
		if i == j {
			return 0
		}
		return 3
	}
	p := &Plan{Links: []LinkRule{
		{Src: 0, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 3},
		{Src: -1, Dst: 1, Class: -1, LatencyFactor: 5, BetaFactor: 7, Start: 10, End: 20},
		{Src: -1, Dst: -1, Class: 3, LatencyFactor: 11, BetaFactor: 13},
	}}
	rt, err := Compile(p, 4, pairClass)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.HasLinks() {
		t.Fatal("HasLinks false")
	}
	// Rules compose multiplicatively; the windowed rule only inside [10,20).
	if lat, beta := rt.Link(0, 1, 0); lat != 2*11 || beta != 3*13 {
		t.Errorf("Link(0,1,0) = %v,%v", lat, beta)
	}
	if lat, beta := rt.Link(0, 1, 15); lat != 2*5*11 || beta != 3*7*13 {
		t.Errorf("Link(0,1,15) = %v,%v", lat, beta)
	}
	if lat, beta := rt.Link(2, 3, 0); lat != 11 || beta != 13 {
		t.Errorf("Link(2,3,0) = %v,%v", lat, beta)
	}
	if lat, beta := rt.Link(2, 2, 0); lat != 1 || beta != 1 {
		t.Errorf("Link(self) = %v,%v, want 1,1", lat, beta)
	}
	// EdgeSig is the window-independent rule bitmask.
	if sig := rt.EdgeSig(0, 1); sig != 0b111 {
		t.Errorf("EdgeSig(0,1) = %b", sig)
	}
	if sig := rt.EdgeSig(2, 1); sig != 0b110 {
		t.Errorf("EdgeSig(2,1) = %b", sig)
	}
	if sig := rt.EdgeSig(2, 3); sig != 0b100 {
		t.Errorf("EdgeSig(2,3) = %b", sig)
	}
}

func TestCross(t *testing.T) {
	p := &Plan{FailStops: []FailStop{{Rank: 1, FailAt: 10, Restart: 2, Checkpoint: 4}}}
	rt, err := Compile(p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	pen := FailStop{Rank: 1, FailAt: 10, Restart: 2, Checkpoint: 4}.Penalty() // 2 + (10 - 8)
	if pen != 4 {
		t.Fatalf("penalty = %v", pen)
	}
	// Before the crash: untouched.
	if adj, g := rt.Cross(1, 0, 9); adj != 9 || g != 0 {
		t.Errorf("Cross(1,0,9) = %v,%v", adj, g)
	}
	// The advance crossing FailAt pays the penalty.
	if adj, g := rt.Cross(1, 9, 11); adj != 11+pen || g != pen {
		t.Errorf("Cross(1,9,11) = %v,%v", adj, g)
	}
	// Landing exactly on FailAt counts as crossing.
	if adj, g := rt.Cross(1, 9, 10); adj != 10+pen || g != pen {
		t.Errorf("Cross(1,9,10) = %v,%v", adj, g)
	}
	// Once past, never again (old >= failAt).
	if adj, g := rt.Cross(1, 14, 20); adj != 20 || g != 0 {
		t.Errorf("Cross(1,14,20) = %v,%v", adj, g)
	}
	// Other ranks never pay.
	if adj, g := rt.Cross(0, 9, 11); adj != 11 || g != 0 {
		t.Errorf("Cross(0,...) = %v,%v", adj, g)
	}
}

func TestUniform(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		want bool
	}{
		{"wildcard link", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2}}}, true},
		{"class link", &Plan{Links: []LinkRule{{Src: -1, Dst: -1, Class: 3, LatencyFactor: 2, BetaFactor: 2}}}, true},
		{"src link", &Plan{Links: []LinkRule{{Src: 0, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2}}}, false},
		{"slowdown", &Plan{Slowdowns: []Slowdown{{Rank: 0, Factor: 2}}}, false},
		{"fail-stop", &Plan{FailStops: []FailStop{{Rank: 0, FailAt: 1}}}, false},
	}
	pairClass := func(i, j int) uint8 { return 3 }
	for _, tc := range cases {
		rt, err := Compile(tc.plan, 4, pairClass)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rt.Uniform() != tc.want {
			t.Errorf("%s: Uniform() = %v, want %v", tc.name, rt.Uniform(), tc.want)
		}
	}
}

func TestFingerprint(t *testing.T) {
	p := &Plan{
		Slowdowns: []Slowdown{{Rank: 1, Factor: 2}, {Rank: 2, Factor: 2}, {Rank: 3, Factor: 3}},
		FailStops: []FailStop{{Rank: 2, FailAt: 5, Restart: 1}},
	}
	rt, err := Compile(p, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	fp := func(r int) []byte { return rt.AppendFingerprint(nil, r) }
	if len(fp(0)) != 0 {
		t.Error("untargeted rank has a non-empty fingerprint")
	}
	if !bytes.Equal(fp(1), fp(1)) || bytes.Equal(fp(1), fp(3)) {
		t.Error("distinct factors share a fingerprint")
	}
	if bytes.Equal(fp(1), fp(2)) {
		t.Error("fail-stop rank shares the plain slowdown fingerprint")
	}
	// Jittered slowdowns are rank-unique even with identical rules.
	pj := &Plan{Slowdowns: []Slowdown{{Rank: 1, Factor: 2, Jitter: 0.1}, {Rank: 2, Factor: 2, Jitter: 0.1}}}
	rtj, err := Compile(pj, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rtj.AppendFingerprint(nil, 1), rtj.AppendFingerprint(nil, 2)) {
		t.Error("jittered slowdowns on different ranks share a fingerprint")
	}
}

func TestDescribe(t *testing.T) {
	if ds := (*Runtime)(nil).Describe(); ds != nil {
		t.Errorf("nil runtime describes as %v", ds)
	}
	p := &Plan{
		Slowdowns: []Slowdown{{Rank: 3, Factor: 2.5, Jitter: 0.1, Start: 1, End: 2}},
		Links:     []LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 4}},
		FailStops: []FailStop{{Rank: 1, FailAt: 10, Restart: 2}},
	}
	rt, err := Compile(p, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds := rt.Describe()
	if len(ds) != 3 {
		t.Fatalf("Describe() = %v", ds)
	}
	for i, want := range []string{
		"slowdown rank 3 x2.5 jitter 0.1 in [1,2)",
		"degrade link any lat x2 beta x4",
		"fail-stop rank 1 at 10 penalty 12",
	} {
		if ds[i] != want {
			t.Errorf("Describe()[%d] = %q, want %q", i, ds[i], want)
		}
	}
	if strings.Contains(strings.Join(ds, ";"), "inf") {
		t.Error("open-ended default windows should render bare")
	}
}
