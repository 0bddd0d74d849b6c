package trace_test

// Benchmarks of the spill layer by itself, over the trace the committed
// benchmark's scale_direct workload records: one 64-byte total exchange at
// P=1024, 4.09 million events in about a thousand-event chunks.

import (
	"bytes"
	"context"
	"io"
	"os"
	"sync"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// benchSpill is that run's spill image, recorded once per process and held
// in memory so the numbers are the codec's, not the disk's.
var benchSpill struct {
	once   sync.Once
	data   []byte
	events int64
}

func openBenchSpill(b *testing.B) (*trace.Spill, int64) {
	b.Helper()
	benchSpill.once.Do(func() {
		var raw bytes.Buffer
		raw.Grow(136 << 20)
		rec := trace.NewRecorder()
		rec.SpillTo(&raw, trace.SpillOptions{})
		runTotalExchange(b, 1024, false, rec)
		if err := rec.SpillErr(); err != nil {
			b.Fatal(err)
		}
		_, benchSpill.events, _ = rec.SpillStats()
		benchSpill.data = raw.Bytes()
	})
	sp, err := trace.OpenSpill(bytes.NewReader(benchSpill.data), int64(len(benchSpill.data)))
	if err != nil {
		b.Fatal(err)
	}
	return sp, benchSpill.events
}

// reportEvents adds the events-per-second figure of a benchmark that handled
// events events in each iteration.
func reportEvents(b *testing.B, events int64) {
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSpillRecord records a run into a temp file at the default
// chunking, the span trace.spill_write_ms.p1024 times end to end: the
// P=1024 total exchange above, where every lane stages 16-event blocks, and a
// P=65536 dissemination barrier, where the staging depth is 1.
func BenchmarkSpillRecord(b *testing.B) {
	for _, bc := range []struct {
		name  string
		procs int
		build func(procs int) (sched.Schedule, error)
	}{
		{"p1024", 1024, func(p int) (sched.Schedule, error) { return barrier.StreamTotalExchange(p, 64) }},
		{"p65536", 65536, barrier.StreamDissemination},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := bc.build(bc.procs)
			if err != nil {
				b.Fatal(err)
			}
			m, err := platform.XeonClusterMachine(bc.procs)
			if err != nil {
				b.Fatal(err)
			}
			f, err := os.CreateTemp(b.TempDir(), "record-*.hbsptrc")
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			o := simnet.DefaultOptions()
			var events int64
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := f.Truncate(0); err != nil {
					b.Fatal(err)
				}
				if _, err := f.Seek(0, io.SeekStart); err != nil {
					b.Fatal(err)
				}
				o.Recorder = trace.NewRecorder()
				o.Recorder.SpillTo(f, trace.SpillOptions{})
				if _, err := sched.RunSchedule(context.Background(), m.WithRunSeed(5), s, 1, o); err != nil {
					b.Fatal(err)
				}
				if err := o.Recorder.SpillErr(); err != nil {
					b.Fatal(err)
				}
				_, events, _ = o.Recorder.SpillStats()
			}
			reportEvents(b, events)
		})
	}
}

// BenchmarkSpillDecode decodes every chunk of the file under each of the
// projections the analyses use.
func BenchmarkSpillDecode(b *testing.B) {
	for _, proj := range []string{"all", "rollup", "critical_path"} {
		b.Run(proj, func(b *testing.B) {
			sp, events := openBenchSpill(b)
			want := trace.Projections[proj]
			b.SetBytes(int64(len(benchSpill.data)))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				decoded := 0
				for rank := 0; rank < sp.NumLanes(); rank++ {
					if err := sp.EachChunk(rank, want, func(c *trace.Cols) { decoded += c.Len() }); err != nil {
						b.Fatal(err)
					}
				}
				if int64(decoded) != events {
					b.Fatalf("decoded %d of %d events", decoded, events)
				}
			}
			reportEvents(b, events)
		})
	}
}

// BenchmarkSpillEncode re-encodes the chunks of the first 64 lanes.
func BenchmarkSpillEncode(b *testing.B) {
	sp, _ := openBenchSpill(b)
	var chunks []trace.Cols
	events := 0
	for rank := 0; rank < 64; rank++ {
		err := sp.EachChunk(rank, trace.Projections["all"], func(c *trace.Cols) {
			chunks = append(chunks, c.Clone())
			events += c.Len()
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	var buf []byte
	encoded := 0
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		encoded = 0
		for i := range chunks {
			buf = trace.AppendChunk(buf[:0], 0, &chunks[i])
			encoded += len(buf)
		}
	}
	b.SetBytes(int64(encoded))
	reportEvents(b, int64(events))
}

// BenchmarkCriticalPathSpill walks the critical path off the file; the bytes
// are what the walk read, the events what the file holds.
func BenchmarkCriticalPathSpill(b *testing.B) {
	sp, events := openBenchSpill(b)
	var cp *trace.CriticalPath
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var err error
		if cp, err = trace.CriticalPathOf(sp); err != nil {
			b.Fatal(err)
		}
	}
	st := sp.ReadStats()
	b.SetBytes(st.BytesRead / int64(b.N))
	b.ReportMetric(float64(st.ChunksDecoded)/float64(b.N), "chunks/op")
	b.ReportMetric(float64(len(cp.Hops)), "hops")
	reportEvents(b, events)
}

// BenchmarkRollupSpill computes the rollup off the file.
func BenchmarkRollupSpill(b *testing.B) {
	sp, events := openBenchSpill(b)
	b.SetBytes(int64(len(benchSpill.data)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ru, err := trace.RollupOf(sp, trace.RollupOptions{TopK: 8})
		if err != nil {
			b.Fatal(err)
		}
		if ru.Events == 0 {
			b.Fatal("empty rollup")
		}
	}
	reportEvents(b, events)
}
