package experiments

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"hbsp/internal/platform"
)

// wiredSeries are the series that hand their machines a noise-draw memo. top,
// where a series' sweep is set by ProcStep, reduces it to {2, its largest P}.
var wiredSeries = []struct {
	name string
	run  func(prof *platform.Profile, o Options) (any, error)
	top  bool
}{
	{"Fig5_6Series", func(p *platform.Profile, o Options) (any, error) { return Fig5_6Series(p, o.MaxProcsXeon, o) }, true},
	{"Fig6_3Series", func(p *platform.Profile, o Options) (any, error) { return Fig6_3Series(p, o.MaxProcsXeon, o) }, true},
	{"Fig7_4Series", func(p *platform.Profile, o Options) (any, error) { return Fig7_4Series(p, o.MaxProcsXeon, o) }, true},
	{"CollectiveSeries", func(p *platform.Profile, o Options) (any, error) { return CollectiveSeries(p, o.MaxProcsXeon, o) }, true},
	{"AdaptedSyncSeries", func(p *platform.Profile, o Options) (any, error) { return AdaptedSyncSeries(p, o.MaxProcsXeon, o) }, true},
	{"Table3_1", func(p *platform.Profile, o Options) (any, error) { return Table3_1(p, o) }, false},
}

// TestSharedSeriesDrawsAreHandedIn runs every wired series with its memo and with
// the hand-in suppressed and requires the same points, then reads the memo's
// counters: more lookups answered than draws computed (a series whose
// machines were not handed the memo stores nothing and answers nothing), and
// — the streams at every P being prefixes of the streams at the largest — no
// more stored than the largest P stores alone. ProcStep is 4, as in the full
// sweeps: Quick's three process counts share a fifth of their draws, the
// full sweep 85 %.
func TestSharedSeriesDrawsAreHandedIn(t *testing.T) {
	defer func() { newDraws = platform.NewDraws }()
	prof := platform.Xeon8x2x4()
	for _, s := range wiredSeries {
		run := func(o Options, handIn bool) (any, platform.DrawStats) {
			t.Helper()
			ResetParamsCache()
			var made []*platform.Draws
			newDraws = func(seed int64, ranks int) *platform.Draws {
				d := platform.NewDraws(seed, ranks)
				made = append(made, d)
				if !handIn {
					return nil
				}
				return d
			}
			pts, err := s.run(prof, o)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if len(made) != 1 {
				t.Fatalf("%s made %d memos, want one for the series", s.name, len(made))
			}
			return pts, made[0].Stats()
		}
		o := Quick()
		o.ProcStep = 4
		with, st := run(o, true)
		without, none := run(o, false)
		if !reflect.DeepEqual(with, without) {
			t.Errorf("%s: points differ with the memo handed in:\n%v\n%v", s.name, with, without)
		}
		if none != (platform.DrawStats{}) {
			t.Errorf("%s: a memo that was not handed in counts %+v", s.name, none)
		}
		if all := st.Hits + st.Stored + st.Direct; st.Stored == 0 || 2*st.Hits < all {
			t.Errorf("%s: memo stats %+v: want hits at least half of all %d draws", s.name, st, all)
		}
		if s.top {
			o.ProcStep = o.MaxProcsXeon
			if _, top := run(o, true); st.Stored > top.Stored {
				t.Errorf("%s: the sweep stored %d draws, its largest P alone %d", s.name, st.Stored, top.Stored)
			}
		}
	}
}

// TestSharedSeriesDrawsAreDropped holds the ownership rule: the memo is the
// series', so once the series has returned and its points are dropped nothing
// reaches the memo (no package-level store, no machine kept by a pool).
func TestSharedSeriesDrawsAreDropped(t *testing.T) {
	defer func() { newDraws = platform.NewDraws }()
	ResetParamsCache()
	freed := make(chan struct{})
	newDraws = func(seed int64, ranks int) *platform.Draws {
		d := platform.NewDraws(seed, ranks)
		runtime.SetFinalizer(d, func(*platform.Draws) { close(freed) })
		return d
	}
	if _, err := Fig5_6Series(platform.Xeon8x2x4(), 8, tinyOptions()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("the series' memo is still reachable after the series returned")
	}
}
