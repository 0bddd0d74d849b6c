package trace_test

// A spill file is outside input: whatever its bytes, opening and analysing it
// returns a result or an error, never a panic, and never allocates out of
// proportion to the file.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"hbsp/internal/trace"
)

// recordWrites keeps the offset every Write started at: the spill sink hands
// its writer exactly one Write per record (the last carries summary, index
// and footer together), so these are the file's record boundaries.
type recordWrites struct {
	bytes.Buffer
	starts []int
}

func (w *recordWrites) Write(p []byte) (int, error) {
	w.starts = append(w.starts, w.Len())
	return w.Buffer.Write(p)
}

// smallSpill is the probe file: a dissemination barrier at P=16 in 8-event
// chunks, a few kilobytes with several chunks per lane.
func smallSpill(t testing.TB) *recordWrites {
	t.Helper()
	var raw recordWrites
	rec := trace.NewRecorder()
	rec.SpillTo(&raw, trace.SpillOptions{ChunkEvents: 8})
	runDissemination(t, 16, 7, 1, rec)
	if err := rec.SpillErr(); err != nil {
		t.Fatal(err)
	}
	return &raw
}

// readSpill drives every reader over data the way a caller would: open, the
// four analyses, the merged iterator to exhaustion, the materialized trace.
// It returns the first error; a panic is the caller's to catch.
func readSpill(data []byte) error {
	sp, err := trace.OpenSpill(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	var errs []error
	_, err = trace.CriticalPathOf(sp)
	errs = append(errs, err)
	_, err = trace.BreakdownOf(sp)
	errs = append(errs, err)
	_, err = trace.HRelationsOf(sp)
	errs = append(errs, err)
	_, err = trace.RollupOf(sp, trace.RollupOptions{})
	errs = append(errs, err)
	it, err := trace.NewIter(sp)
	if err == nil {
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		err = it.Err()
	}
	errs = append(errs, err)
	return errors.Join(errs...)
}

// flipBits returns a copy of data with one to three bits flipped.
func flipBits(rng *rand.Rand, data []byte) []byte {
	mut := append([]byte(nil), data...)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
	}
	return mut
}

// TestBitFlippedSpillsNeverPanic reads 20,000 mutants of the probe file, one
// to three flipped bits each from a fixed seed: each yields a result or an
// error that wraps ErrCorruptSpill.
func TestBitFlippedSpillsNeverPanic(t *testing.T) {
	data := smallSpill(t).Bytes()
	if err := readSpill(data); err != nil {
		t.Fatalf("the unmutated file: %v", err)
	}
	mutants := 20000
	if testing.Short() {
		mutants = 2000
	}
	rng := rand.New(rand.NewSource(14))
	panics, rejected := 0, 0
	for n := 0; n < mutants; n++ {
		mut := flipBits(rng, data)
		func() {
			defer func() {
				if p := recover(); p != nil {
					if panics++; panics <= 5 {
						t.Errorf("mutant %d panics: %v", n, p)
					}
				}
			}()
			if err := readSpill(mut); err != nil {
				rejected++
				if !errors.Is(err, trace.ErrCorruptSpill) {
					t.Errorf("mutant %d: error does not wrap ErrCorruptSpill: %v", n, err)
				}
			}
		}()
	}
	t.Logf("%d-byte file, %d mutants: %d rejected, %d read clean, %d panics", len(data), mutants, rejected, mutants-rejected-panics, panics)
	if panics > 0 {
		t.Fatalf("%d of %d mutants panic", panics, mutants)
	}
}

// TestTruncatedSpillIsRejected cuts the probe file at every record boundary
// and inside the footer: OpenSpill refuses each cut with ErrCorruptSpill.
func TestTruncatedSpillIsRejected(t *testing.T) {
	raw := smallSpill(t)
	for _, cut := range truncations(raw) {
		_, err := trace.OpenSpill(bytes.NewReader(raw.Bytes()[:cut]), int64(cut))
		if !errors.Is(err, trace.ErrCorruptSpill) {
			t.Errorf("file cut at %d of %d bytes: %v, want ErrCorruptSpill", cut, raw.Len(), err)
		}
	}
}

// truncations lists the cuts of the seed corpus: every record boundary (the
// header's end, each chunk's, the summary and the index, read from the
// footer) and the footer's start and middle.
func truncations(raw *recordWrites) []int {
	data := raw.Bytes()
	cuts := append([]int(nil), raw.starts...)
	foot := data[len(data)-24:]
	idxOff := int(binary.LittleEndian.Uint64(foot[8:16]))
	return append(cuts, idxOff, len(data)-24, len(data)-12)
}

// fuzzHeapMultiple bounds what reading a spill may allocate, in bytes per
// byte of input, above a fixed allowance for the readers' fixed-size state.
// The valid probe file needs 8 and the worst of the 20,000 bit-flip mutants
// 10 (every event is decoded once per reader, 64 bytes decoded against a
// dozen encoded); the bound leaves room for inputs that name more steps than
// the probe has, which the per-step, per-rank accumulators pay for.
const (
	fuzzHeapMultiple  = 128
	fuzzHeapAllowance = 1 << 20
)

// FuzzOpenSpill feeds arbitrary bytes to every reader of a spill file. The
// seed corpus is the probe file, the same cut at every record boundary and in
// the footer, and (under testdata/fuzz) mutants that made the readers before
// the chunk-level checks panic.
func FuzzOpenSpill(f *testing.F) {
	raw := smallSpill(f)
	f.Add(raw.Bytes())
	for _, cut := range truncations(raw) {
		f.Add(raw.Bytes()[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readSpill(data) // a panic fails the run by itself
		runtime.ReadMemStats(&after)
		if grown, limit := after.TotalAlloc-before.TotalAlloc, uint64(fuzzHeapAllowance+fuzzHeapMultiple*len(data)); grown > limit {
			t.Fatalf("reading %d bytes allocated %d, more than %d (%v)", len(data), grown, limit, err)
		}
	})
}
