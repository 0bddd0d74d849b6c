package platform

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hbsp/internal/loggp"
)

// noisyMachine is a preset machine with run-to-run jitter, the kind a memo
// serves.
func noisyMachine(t *testing.T, ranks int) *Machine {
	t.Helper()
	m, err := Xeon8x2x4().Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	if m.Profile().NoiseRel <= 0 {
		t.Fatal("preset is noise-free")
	}
	return m
}

// TestDrawsMatchUncached holds a machine reading through a memo to the same
// machine computing every draw, bit for bit: on both sides of a block
// boundary, at the last stored and the first unstored position of a row, for
// a rank the memo has no row for, on generated triples, on second reads, and
// once the memo is full. It also pins when a memo is not used at all.
func TestDrawsMatchUncached(t *testing.T) {
	const ranks, rowCap = 8, drawRowBlocks * drawBlock
	m := noisyMachine(t, ranks)
	d := NewDraws(m.RunSeed(), ranks-1) // the last rank has no row
	c := m.WithDraws(d)
	if c.draws != d {
		t.Fatal("WithDraws did not attach a memo of the machine's seed")
	}
	check := func(rank int, seq uint64) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // the second read is a hit
			if got, want := c.Noise(rank, seq), m.Noise(rank, seq); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Noise(%d, %d) through the memo = %v, computed %v", rank, seq, got, want)
			}
		}
	}
	for rank := 0; rank < ranks; rank++ {
		for _, seq := range []uint64{0, 1, drawBlock - 1, drawBlock, drawBlock + 1, rowCap - 1, rowCap, rowCap + 1, math.MaxUint64} {
			check(rank, seq)
		}
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2000; i++ {
		check(rng.Intn(ranks), uint64(rng.Int63n(2*rowCap)))
	}
	if s := d.Stats(); s.Stored == 0 || s.Direct == 0 || s.Stored%drawBlock != 0 {
		t.Errorf("stats %+v: want whole blocks stored and unstored positions computed", s)
	}

	// Not used: another seed, a noise-free machine, no memo; WithRunSeed
	// drops it even for the same seed.
	flat, err := FlatClusterMachine(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*Machine{
		"other seed":  m.WithRunSeed(m.RunSeed() + 1).WithDraws(d),
		"noise-free":  flat.WithDraws(NewDraws(flat.RunSeed(), 4)),
		"nil memo":    c.WithDraws(nil),
		"WithRunSeed": c.WithRunSeed(m.RunSeed()),
	} {
		if o.draws != nil {
			t.Errorf("%s: machine reads through a memo", name)
		}
	}
	if got := flat.WithDraws(NewDraws(flat.RunSeed(), 4)).Noise(0, 0); got != 1 {
		t.Errorf("noise-free machine draws %v", got)
	}

	// Full: every block of maxDrawBlocks/drawRowBlocks rows stored, then no
	// further block is, and the draws past it are still the draws.
	const fullRows = maxDrawBlocks / drawRowBlocks
	wide := NewDraws(m.RunSeed(), fullRows+1)
	c = m.WithDraws(wide)
	for rank := 0; rank < fullRows; rank++ {
		for b := uint64(0); b < drawRowBlocks; b++ {
			c.Noise(rank, b*drawBlock)
		}
	}
	if s := wide.Stats(); s.Stored != maxDrawBlocks*drawBlock || s.Direct != 0 {
		t.Fatalf("stats %+v after filling: want %d stored, none direct", s, maxDrawBlocks*drawBlock)
	}
	check(fullRows, 0)
	check(0, 7)
	if s := wide.Stats(); s.Stored != maxDrawBlocks*drawBlock || s.Direct != 2 {
		t.Errorf("stats %+v on a full memo: want nothing more stored, two draws direct", s)
	}
	if huge := NewDraws(1, 1<<30); len(huge.rows) != maxDrawBlocks {
		t.Errorf("NewDraws(1<<30 ranks) has %d rows, want one for each of the %d blocks it may store", len(huge.rows), maxDrawBlocks)
	}
}

// TestSharedDrawsFill has 8 goroutines walk overlapping rows of one memo
// from the start, as the workers of a sweep do, and holds every value to the
// computed one. Under -race it is the check that a block is published only
// after it is filled. It then holds one fill between computing its block and
// publishing it (fillHook): a second reader of the block gets a window of a
// block it filled itself, not a draw computed alone, and the held reader
// reads the block the second published.
func TestSharedDrawsFill(t *testing.T) {
	const ranks, readers, perRow = 6, 8, 3*drawBlock + 17
	m := noisyMachine(t, ranks)
	d := NewDraws(m.RunSeed(), ranks)
	c := m.WithDraws(d)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := uint64(0); seq < perRow; seq++ {
				for k := 0; k < 4; k++ {
					rank := (g + k) % ranks
					if got, want := c.Noise(rank, seq), m.Noise(rank, seq); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("reader %d: Noise(%d, %d) = %v, computed %v", g, rank, seq, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Which reader publishes a block is scheduling's choice; that no block
	// is stored twice, and that no draw is computed outside one, is not.
	if s, want := d.Stats(), int64(ranks*4*drawBlock); s.Stored != want || s.Direct != 0 {
		t.Errorf("stats %+v: want %d draws stored (4 blocks for each of %d rows), none direct", s, want, ranks)
	}

	held := NewDraws(m.RunSeed(), ranks)
	started, release := make(chan struct{}), make(chan struct{})
	var fills atomic.Int32
	fillHook = func() {
		if fills.Add(1) == 1 {
			close(started)
			<-release
		}
	}
	defer func() { fillHook = nil }()
	type read struct {
		z   float64
		w   *[loggp.WindowLen]float64
		end uint64
	}
	first := make(chan read)
	go func() {
		z, w, end := held.Draw(1, 5)
		first <- read{z, w, end}
	}()
	<-started
	z, w, end := held.Draw(1, 7)
	close(release)
	a := <-first
	if w == nil || end != loggp.WindowLen || z != drawZ(m.RunSeed(), 1, 7) {
		t.Errorf("while another reader filled the block, Draw(1, 7) = %v with window %p ending at %d; want the draw, a window ending at %d", z, w, end, loggp.WindowLen)
	}
	if a.w != w || a.end != end || a.z != drawZ(m.RunSeed(), 1, 5) {
		t.Errorf("the held reader read window %p ending at %d, want the published %p", a.w, a.end, w)
	}
	if s := held.Stats(); s.Stored != drawBlock || s.Direct != 0 {
		t.Errorf("stats %+v after one contended fill: want one block stored, none direct", s)
	}
}
