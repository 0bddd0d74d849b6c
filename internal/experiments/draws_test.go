package experiments

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"hbsp/internal/platform"
)

// wiredSeries are the series that hand their machines a noise-draw memo. top,
// where a series' sweep is set by ProcStep, reduces it to {2, its largest P}.
// reseeds, for a series whose runs at one P share a re-seeded copy with a
// memo of its own (reseeded), is the smallest P it measures at.
var wiredSeries = []struct {
	name    string
	run     func(prof *platform.Profile, o Options) (any, error)
	top     bool
	reseeds int
}{
	{"Fig5_6Series", func(p *platform.Profile, o Options) (any, error) { return Fig5_6Series(p, o.MaxProcsXeon, o) }, true, 2},
	{"Fig6_3Series", func(p *platform.Profile, o Options) (any, error) { return Fig6_3Series(p, o.MaxProcsXeon, o) }, true, 0},
	{"Fig7_4Series", func(p *platform.Profile, o Options) (any, error) { return Fig7_4Series(p, o.MaxProcsXeon, o) }, true, 4},
	{"CollectiveSeries", func(p *platform.Profile, o Options) (any, error) { return CollectiveSeries(p, o.MaxProcsXeon, o) }, true, 2},
	{"AdaptedSyncSeries", func(p *platform.Profile, o Options) (any, error) { return AdaptedSyncSeries(p, o.MaxProcsXeon, o) }, true, 4},
	{"Table3_1", func(p *platform.Profile, o Options) (any, error) { return Table3_1(p, o) }, false, 0},
}

// TestSharedSeriesDrawsAreHandedIn runs every wired series with its memos and
// with the hand-in suppressed and requires the same points, then reads the
// series memo's counters: more lookups answered than draws computed (a series
// whose machines were not handed the memo stores nothing and answers
// nothing), and — the streams at every P being prefixes of the streams at the
// largest — no more stored than the largest P stores alone. ProcStep is 4, as
// in the full sweeps: Quick's three process counts share a fifth of their
// draws, the full sweep 85 %. A series that re-seeds makes one TurnDraws for
// each P it measures at, and each answers lookups: the runs sharing the seed
// draw its values more than once.
func TestSharedSeriesDrawsAreHandedIn(t *testing.T) {
	defer func(turn func(int64, int) *platform.TurnDraws) { newDraws, newTurnDraws = platform.NewDraws, turn }(newTurnDraws)
	prof := platform.Xeon8x2x4()
	for _, s := range wiredSeries {
		run := func(o Options, handIn bool) (any, platform.DrawStats, []platform.DrawStats) {
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
			var mu sync.Mutex
			var turns []*platform.TurnDraws
			newTurnDraws = func(seed int64, ranks int) *platform.TurnDraws {
				d := platform.NewTurnDraws(seed, ranks, platform.MaxDraws)
				mu.Lock()
				turns = append(turns, d)
				mu.Unlock()
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
			want := 0
			for _, p := range procSweep(o.ProcStep, o.MaxProcsXeon) {
				if s.reseeds > 0 && p >= s.reseeds {
					want++
				}
			}
			if len(turns) != want {
				t.Fatalf("%s made %d re-seeded memos, want %d", s.name, len(turns), want)
			}
			var st []platform.DrawStats
			for _, d := range turns {
				st = append(st, d.Stats())
			}
			return pts, made[0].Stats(), st
		}
		o := Quick()
		o.ProcStep = 4
		with, st, turns := run(o, true)
		without, none, noTurns := run(o, false)
		if !reflect.DeepEqual(with, without) {
			t.Errorf("%s: points differ with the memos handed in:\n%v\n%v", s.name, with, without)
		}
		for _, n := range append(noTurns, none) {
			if n != (platform.DrawStats{}) {
				t.Errorf("%s: a memo that was not handed in counts %+v", s.name, n)
			}
		}
		for _, r := range turns {
			if r.Stored == 0 || r.Hits == 0 {
				t.Errorf("%s: re-seeded memo stats %+v: want draws stored and reused", s.name, r)
			}
		}
		if all := st.Hits + st.Stored + st.Direct; st.Stored == 0 || 2*st.Hits < all {
			t.Errorf("%s: memo stats %+v: want hits at least half of all %d draws", s.name, st, all)
		}
		if s.top {
			// Every block a reader misses is stored, whichever of the
			// readers filling it at once publishes it, so the reference may
			// run its points on several workers.
			o.ProcStep = o.MaxProcsXeon
			_, top, _ := run(o, true)
			if st.Stored > top.Stored {
				t.Errorf("%s: the sweep stored %d draws, its largest P alone %d (%d computed directly)", s.name, st.Stored, top.Stored, top.Direct)
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
