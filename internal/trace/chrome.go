package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteChrome exports a run in the Chrome trace-event JSON format, which
// chrome://tracing and Perfetto (ui.perfetto.dev, "Open trace file") load
// directly. Every rank becomes a thread of one process; busy and blocked
// intervals become complete ("X") slices; gating messages become flow arrows
// between the sender's injection slice and the receiver's wait slice.
//
// The writer emits fields in a fixed order with fixed float formatting, so
// the export of a deterministic trace is byte-identical across runs — golden
// tests diff it directly. It streams one lane at a time off any Source; the
// flow-arrow endpoints come from the SendEnd stamp on the receiver's own
// lane, so no peer lane is ever dereferenced.
func WriteChrome(w io.Writer, src Source) error {
	cw, err := newChromeWriter(w, src, nil)
	if err != nil {
		return err
	}
	nl := src.NumLanes()
	for rank := 0; rank < nl; rank++ {
		cw.threadName(rank, fmt.Sprintf("rank %d", rank))
	}
	if err := eachLane(src, colsChrome, func(rank int, c *Cols) { cw.chunk(src, rank, c, nil) }); err != nil {
		return err
	}
	return cw.finish()
}

// ChromeOptions tune WriteChromeAuto.
type ChromeOptions struct {
	// MaxEvents is the event budget above which the export downsamples;
	// 0 means DefaultChromeBudget.
	MaxEvents int
	// MaxLanes caps the rank lanes of a downsampled export; 0 means 64.
	MaxLanes int
	// TopK is the number of top-slack lanes a downsampled export keeps
	// (the rest of the lane budget goes to evenly strided representative
	// ranks); 0 means MaxLanes/2.
	TopK int
}

// DefaultChromeBudget is the full-export event budget: beyond it a full
// Chrome JSON stops being loadable in practice (hundreds of MB), so
// WriteChromeAuto downsamples and cmd/hbsptrace refuses -chrome-full.
const DefaultChromeBudget = 250000

func (o ChromeOptions) withDefaults() ChromeOptions {
	if o.MaxEvents <= 0 {
		o.MaxEvents = DefaultChromeBudget
	}
	if o.MaxLanes <= 0 {
		o.MaxLanes = 64
	}
	if o.TopK <= 0 || o.TopK > o.MaxLanes {
		o.TopK = o.MaxLanes / 2
	}
	return o
}

// WriteChromeAuto writes the full Chrome export when the run fits the event
// budget (byte-identical to WriteChrome) and a downsampled one otherwise:
// the critical rank, the top-slack stragglers and evenly strided
// representative ranks keep their full lanes (flow arrows only between kept
// lanes), and per-superstep aggregate counters over ALL ranks ride on a
// synthetic counter track, so the rollup view survives the sampling. It
// reports whether it downsampled.
func WriteChromeAuto(w io.Writer, src Source, opts ChromeOptions) (bool, error) {
	opts = opts.withDefaults()
	if NumEventsOf(src) <= opts.MaxEvents || src.NumLanes() <= opts.MaxLanes {
		return false, WriteChrome(w, src)
	}

	nl := src.NumLanes()
	keep := make(map[int]bool, opts.MaxLanes)
	var order []int
	add := func(rank int) {
		if rank >= 0 && rank < nl && !keep[rank] && len(order) < opts.MaxLanes {
			keep[rank] = true
			order = append(order, rank)
		}
	}
	// The critical rank first, then the worst stragglers, then an even
	// stride over the whole machine for context.
	sum := src.RunSummary()
	critRank := -1
	for r, ft := range sum.Times {
		if critRank < 0 || ft > sum.Times[critRank] {
			critRank = r
		}
	}
	add(critRank)
	for _, s := range TopSlack(src, opts.TopK) {
		add(s.Rank)
	}
	stride := nl / (opts.MaxLanes - len(order) + 1)
	if stride < 1 {
		stride = 1
	}
	for r := 0; r < nl && len(order) < opts.MaxLanes; r += stride {
		add(r)
	}

	bd, err := BreakdownOf(src)
	if err != nil {
		return true, err
	}
	extra := map[string]string{
		"downsampled":  "true",
		"sampledLanes": strconv.Itoa(len(order)),
		"totalEvents":  strconv.Itoa(NumEventsOf(src)),
	}
	cw, err := newChromeWriter(w, src, extra)
	if err != nil {
		return true, err
	}
	for _, rank := range order {
		cw.threadName(rank, fmt.Sprintf("rank %d", rank))
	}
	cw.threadName(nl, fmt.Sprintf("aggregate (%d ranks)", nl))
	// Aggregate counters: per-superstep category totals over every rank,
	// plotted at the step boundaries.
	for _, sb := range bd.PerStep {
		if sb.Straggler < 0 {
			continue
		}
		cw.sep()
		fmt.Fprintf(cw.bw, "{\"name\":\"step totals (s)\",\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"args\":{\"compute\":%s,\"send\":%s,\"straggler\":%s,\"latency\":%s}}",
			nl, microseconds(sb.Boundary),
			formatSeconds(sb.ByCategory[CatCompute]), formatSeconds(sb.ByCategory[CatSend]),
			formatSeconds(sb.ByCategory[CatStraggler]), formatSeconds(sb.ByCategory[CatLatency]))
	}
	for _, rank := range order {
		if err := cw.lane(src, rank, keep); err != nil {
			return true, err
		}
	}
	return true, cw.finish()
}

// chromeWriter shares the event-emission machinery between the full and the
// downsampled export.
type chromeWriter struct {
	bw    *bufio.Writer
	first bool
}

func newChromeWriter(w io.Writer, src Source, extra map[string]string) (*chromeWriter, error) {
	meta := src.RunMeta()
	sum := src.RunSummary()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":{")
	fmt.Fprintf(bw, "\"procs\":\"%d\"", meta.Procs)
	if meta.SeedKnown {
		fmt.Fprintf(bw, ",\"seed\":\"%d\"", meta.Seed)
	}
	if meta.Machine != "" {
		fmt.Fprintf(bw, ",\"machine\":%s", strconv.Quote(meta.Machine))
	}
	if meta.Label != "" {
		fmt.Fprintf(bw, ",\"workload\":%s", strconv.Quote(meta.Label))
	}
	for i, f := range meta.Faults {
		fmt.Fprintf(bw, ",\"fault%d\":%s", i, strconv.Quote(f))
	}
	fmt.Fprintf(bw, ",\"makespan_s\":\"%s\"", formatSeconds(sum.MakeSpan))
	// Deterministic key order for the downsampling metadata.
	for _, k := range []string{"downsampled", "sampledLanes", "totalEvents"} {
		if v, ok := extra[k]; ok {
			fmt.Fprintf(bw, ",%s:%s", strconv.Quote(k), strconv.Quote(v))
		}
	}
	fmt.Fprintf(bw, "},\"traceEvents\":[\n")
	return &chromeWriter{bw: bw, first: true}, nil
}

func (cw *chromeWriter) sep() {
	if !cw.first {
		cw.bw.WriteString(",\n")
	}
	cw.first = false
}

func (cw *chromeWriter) threadName(tid int, name string) {
	cw.sep()
	fmt.Fprintf(cw.bw, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":%s}}",
		tid, strconv.Quote(name))
}

// colsChrome are the columns the Chrome export reads: everything but
// Arrival.
const colsChrome = colsAll &^ colArrival

// lane streams one rank's chunks into slices, marks and flow arrows. keep
// limits arrow emission to sampled peers (nil keeps every arrow).
func (cw *chromeWriter) lane(src Source, rank int, keep map[int]bool) error {
	return eachChunk(src, rank, colsChrome, func(c *Cols) { cw.chunk(src, rank, c, keep) })
}

func (cw *chromeWriter) chunk(src Source, rank int, c *Cols, keep map[int]bool) {
	for i, n := 0, c.Len(); i < n; i++ {
		kind := c.Kind[i]
		switch kind {
		case KindSuperstep, KindStage:
			idx := c.Step[i]
			if kind == KindStage {
				idx = c.Stage[i]
			}
			cw.sep()
			fmt.Fprintf(cw.bw, "{\"name\":\"%s %d\",\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%s}",
				kind, idx, rank, microseconds(c.T1[i]))
		default:
			if c.T1[i]-c.T0[i] <= 0 {
				continue // matches the merged-slice writer: no slice, no arrow
			}
			cw.sep()
			fmt.Fprintf(cw.bw, "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"step\":%d",
				kind, kind, rank, microseconds(c.T0[i]), microseconds(c.T1[i]-c.T0[i]), c.Step[i])
			if c.Stage[i] >= 0 {
				fmt.Fprintf(cw.bw, ",\"stage\":%d", c.Stage[i])
			}
			if c.Peer[i] >= 0 {
				fmt.Fprintf(cw.bw, ",\"peer\":%d,\"tag\":%d,\"bytes\":%d", c.Peer[i], c.Tag[i], c.Size[i])
			}
			cw.bw.WriteString("}}")
		}
		// Flow arrow from the matching send slice into this wait slice —
		// only when the message's arrival actually gated the wait (the
		// same condition CriticalPath hops on), so the rendered arrows
		// are exactly the sender dependencies, not port-bound waits. The
		// sender-side timestamp is the SendEnd stamp the message carried.
		if kind == KindRecvWait && c.Flags[i]&flagGated != 0 && linkValid(src, c, i) &&
			(keep == nil || keep[int(c.Peer[i])]) {
			id := int64(c.Peer[i])<<32 | int64(c.SendSeq[i])
			cw.sep()
			fmt.Fprintf(cw.bw, "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%s}",
				id, c.Peer[i], microseconds(c.SendEnd[i]))
			cw.sep()
			fmt.Fprintf(cw.bw, "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"pid\":0,\"tid\":%d,\"ts\":%s}",
				id, rank, microseconds(c.T1[i]))
		}
	}
}

func (cw *chromeWriter) finish() error {
	cw.bw.WriteString("\n]}\n")
	return cw.bw.Flush()
}

// microseconds renders a virtual time in seconds as microseconds with
// nanosecond resolution, the unit the Chrome trace format expects.
func microseconds(seconds float64) string {
	return strconv.FormatFloat(seconds*1e6, 'f', 3, 64)
}

// formatSeconds renders a virtual time with full float64 round-trip
// precision, so exported metadata can be compared bit-for-bit.
func formatSeconds(seconds float64) string {
	return strconv.FormatFloat(seconds, 'g', 17, 64)
}
