package server

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestKindTableIsTotal walks the workload-kind table: the kinds in the order
// WorkloadSpec documents them; one shape per row; every schedule variant
// built and verified at P ∈ {2, 3, 16} (rooted ones at either end); every
// unknown variant refused with the row's variants in order; and a point of
// every kind and variant answered on both engines, counted under the route
// its shape names on the default engine and under concurrent on the other.
func TestKindTableIsTotal(t *testing.T) {
	var names []string
	for _, k := range kinds {
		names = append(names, k.name)
	}
	if got, want := names, []string{"barrier", "broadcast", "reduce", "allreduce", "allgather", "totalexchange", "sync", "stencil", "program"}; !slices.Equal(got, want) {
		t.Fatalf("kinds %v, want %v", got, want)
	}

	for _, k := range kinds {
		if k.comm != nil && k.static != nil {
			t.Errorf("%s: both a schedule and a static row", k.name)
		}
		if (k.comm == nil && k.static == nil) != (k.fields&fieldRanks != 0) {
			t.Errorf("%s: a program row is exactly the row with op-streams", k.name)
		}
		if len(k.variants) == 0 {
			t.Fatalf("%s: no variant", k.name)
		}
		for _, v := range k.variants {
			if k.comm != nil && v.gen == nil {
				t.Errorf("%s:%s: a schedule row's variant has no generator", k.name, v.name)
			}
			if v.gen == nil {
				continue
			}
			for _, p := range []int{2, 3, 16} {
				roots := []int{0}
				if k.fields&fieldRoot != 0 {
					roots = append(roots, p-1)
				}
				for _, root := range roots {
					sch, err := v.gen(p, root, 64)
					if err == nil {
						err = sch.Verify()
					}
					if err != nil {
						t.Errorf("%s:%s P=%d root %d: %v", k.name, v.name, p, root, err)
					}
				}
			}
		}
	}

	for kind, want := range map[string]string{
		"barrier":       `server: invalid request: unknown barrier variant "ring" (dissemination, tree, linear)`,
		"broadcast":     `server: invalid request: workload "broadcast" has no variants`,
		"reduce":        `server: invalid request: workload "reduce" has no variants`,
		"allreduce":     `server: invalid request: workload "allreduce" has no variants`,
		"allgather":     `server: invalid request: workload "allgather" has no variants`,
		"totalexchange": `server: invalid request: workload "totalexchange" has no variants`,
		"sync":          `server: invalid request: unknown sync variant "ring" (dissemination, schedule)`,
		"stencil":       `server: invalid request: workload "stencil" has no variants`,
		"program":       `server: invalid request: workload "program" has no variants`,
	} {
		w := WorkloadSpec{Kind: kind, Variant: "ring"}
		if err := normalizeWorkload(&w, 4); err == nil || err.Error() != want {
			t.Errorf("%s with an unknown variant: %v, want %q", kind, err, want)
		}
	}

	const p = 4
	ring := make([][]OpSpec, p)
	for i := range ring {
		ring[i] = []OpSpec{{Op: "isend", To: (i + 1) % p, Bytes: 8}, {Op: "irecv", From: (i + p - 1) % p}, {Op: "wait"}, {Op: "wait", Req: 1}}
	}
	for _, engine := range []string{"auto", "concurrent"} {
		for _, k := range kinds {
			for _, v := range k.variants {
				s := New(Config{})
				req := PredictRequest{Profile: ProfileSpec{Preset: "xeon-8x2x4"}, Procs: p,
					Workload: WorkloadSpec{Kind: k.name, Variant: v.name}, Options: OptionsSpec{Engine: engine}}
				if k.fields&fieldRanks != 0 {
					req.Workload.Ranks = ring
				}
				if err := normalizeOptions(&req.Options); err != nil {
					t.Fatal(err)
				}
				pt := point{procs: p}
				if _, _, err := s.newResolver(&req, []point{pt}, time.Time{}).eval(context.Background(), pt, admitted); err != nil {
					t.Errorf("%s:%s on engine %s: %v", k.name, v.name, engine, err)
					continue
				}
				r := routeOf(&req.Options, &k)
				if s.m.routes[r].Load() != 1 || s.Metrics().Eval.Count != 1 {
					t.Errorf("%s:%s on engine %s: routes %+v, want one evaluation on route %d", k.name, v.name, engine, s.Metrics().Routes, r)
				}
				if (engine == "concurrent") != (r == routeConcurrent) {
					t.Errorf("%s:%s on engine %s: route %d", k.name, v.name, engine, r)
				}
			}
		}
	}
}
