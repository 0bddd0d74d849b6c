package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }

// This file holds the binary spill format: the compact, versioned,
// deterministic on-disk encoding of a recorded run, written either
// incrementally during the run (Recorder.SpillTo — bounded memory) or
// canonically from any Source (WriteSpill — byte-determinism goldens), and
// read back through the same Source interface the in-RAM Trace implements.
//
// Layout (all integers varint-encoded unless stated; strings are
// uvarint-length-prefixed UTF-8):
//
//	header   magic "HBSPTRC\x01", uvarint version (currently 1), run Meta
//	         (procs, seed-known byte, zigzag seed, ack byte, machine,
//	         label, fault lines)
//	chunks   any number of 'C' records: uvarint rank, uvarint event count,
//	         then the twelve column blocks for those events in Cols field
//	         order — Kind and Flags raw, the int32 columns zigzag-varint
//	         delta-encoded, the float64 columns either raw little-endian
//	         bits (mode 0) or zigzag-varint deltas of the uint64 bit
//	         patterns (mode 1); both float modes round-trip every float64
//	         exactly, and the writer deterministically picks mode 1 exactly
//	         when it encodes smaller, so virtual clocks that advance in
//	         near-regular increments cost a few bytes per event instead of 8
//	per lane, chunks appear in lane order; across lanes they interleave in
//	hand-off order, the order of the Appends that filled them (deterministic
//	under the single-goroutine evaluator and for WriteSpill,
//	scheduler-dependent under the concurrent engine — the
//	decoded content is identical either way)
//	summary  one 'S' record: times float column, raw makespan bits, zigzag
//	         messages and bytes, uvarint steps, error text
//	index    one 'I' record: per lane, uvarint event total and the chunk
//	         list as (uvarint offset delta, uvarint byte size, uvarint
//	         count) triples, so any lane is readable without scanning
//	footer   fixed 24 bytes: summary offset, index offset (both uint64
//	         little-endian), magic "HBSPTRCE" — readers seek here first
//
// Reader side. OpenSpill loads the header, the summary and the index and
// checks them against the file once: the lane count against the bytes that
// could hold it, every chunk inside the chunk region with a positive size
// and count, per-lane counts summing to the lane total, all chunks together
// claiming no more bytes than the region has. After that the chunk is the
// unit of every read: readChunk is the one function that fetches chunk bytes,
// decodes them and checks what it decoded (header against the index, Kind,
// Step and Stage ranges) before any analysis indexes by it. A consumer names
// the columns it reads (colSet) and the decoder steps over the others — a raw
// float block is a pointer bump, a varint column a scan for terminator bytes
// — so a lane is never concatenated and resident memory is a chunk, not a
// lane. Of the Source's chunk access, lane streams (laneChunks) decode into
// a slot of their own, the whole-run pass (eachLane) a few chunks ahead of
// its consumer on a second goroutine, and the critical-path walk's window
// (laneWindow) through a small cache of the last few decoded chunks, keyed
// by (rank, chunk index). Whatever is wrong with a file surfaces as an error
// wrapping ErrCorruptSpill.

const (
	spillMagic    = "HBSPTRC\x01"
	spillEndMagic = "HBSPTRCE"
	spillVersion  = 1

	recChunk   = 'C'
	recSummary = 'S'
	recIndex   = 'I'

	floatRaw   = 0
	floatDelta = 1
)

// SpillOptions tune Recorder.SpillTo.
type SpillOptions struct {
	// ChunkEvents caps the events a lane holds in RAM before its columns
	// are encoded and flushed. 0 derives a value from the rank count
	// targeting ~64 MB resident across all lanes, clamped to [64, 8192].
	ChunkEvents int
}

// chunkFor resolves the chunk size for a run with the given rank count.
func (o SpillOptions) chunkFor(procs int) int {
	c := o.ChunkEvents
	if c <= 0 {
		if procs < 1 {
			procs = 1
		}
		// ~64 B of column storage per resident event.
		c = (64 << 20) / (64 * procs)
		if c < 64 {
			c = 64
		}
		if c > 8192 {
			c = 8192
		}
	}
	return c
}

// canonicalChunkEvents is the fixed chunk size of WriteSpill, independent of
// how the source was produced, so the canonical bytes of a run are a pure
// function of its content.
const canonicalChunkEvents = 8192

// --- primitive encoders -------------------------------------------------

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// putUvarint writes the varint of v at b[n:] and returns the index past it;
// the caller has sized b for it.
func putUvarint(b []byte, n int, v uint64) int {
	for v >= 0x80 {
		b[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	b[n] = byte(v)
	return n + 1
}

// appendI32Col zigzag-varint delta-encodes an int32 column, in place into
// space sized once for the five bytes a 32-bit delta can take.
func appendI32Col(b []byte, col []int32) []byte {
	n := len(b)
	b = slices.Grow(b, 5*len(col))
	b = b[:cap(b)]
	prev := int32(0)
	for _, v := range col {
		d := v - prev
		prev = v
		// The zigzag of a 32-bit delta has the bits of the zigzag of its
		// sign extension to 64, which is what the decoder undoes.
		n = putUvarint(b, n, uint64(uint32(d<<1)^uint32(d>>31)))
	}
	return b[:n]
}

// appendF64Col encodes a float64 column as zigzag-varint deltas of the
// uint64 bit patterns when that is smaller than the raw little-endian bits,
// raw otherwise. The delta form is written in place and abandoned as soon as
// it is no smaller than raw, which then overwrites it. Both modes reproduce
// every value bit-for-bit.
func appendF64Col(b []byte, col []float64) []byte {
	raw := 8 * len(col)
	start := len(b) + 1
	// The delta form stops within one varint of raw's size.
	b = slices.Grow(b, 1+raw+binary.MaxVarintLen64)
	b = b[:cap(b)]
	n := start
	prev := uint64(0)
	for _, v := range col {
		bv := f64bits(v)
		d := int64(bv - prev)
		prev = bv
		if n = putUvarint(b, n, uint64(d<<1)^uint64(d>>63)); n-start >= raw {
			break
		}
	}
	if n-start < raw {
		b[start-1] = floatDelta
		return b[:n]
	}
	b[start-1] = floatRaw
	for i, v := range col {
		binary.LittleEndian.PutUint64(b[start+8*i:], f64bits(v))
	}
	return b[:start+raw]
}

// appendKindCol writes the kind column as raw bytes.
func appendKindCol(b []byte, col []Kind) []byte {
	n := len(b)
	b = slices.Grow(b, len(col))[:n+len(col)]
	for i, k := range col {
		b[n+i] = byte(k)
	}
	return b
}

func appendMeta(b []byte, m Meta) []byte {
	b = appendUvarint(b, uint64(m.Procs))
	if m.SeedKnown {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendZigzag(b, m.Seed)
	if m.AckSends {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendString(b, m.Machine)
	b = appendString(b, m.Label)
	b = appendUvarint(b, uint64(len(m.Faults)))
	for _, f := range m.Faults {
		b = appendString(b, f)
	}
	return b
}

// appendChunk encodes one 'C' record for rank's columns.
func appendChunk(b []byte, rank int32, c *Cols) []byte {
	b = append(b, recChunk)
	b = appendUvarint(b, uint64(rank))
	b = appendUvarint(b, uint64(c.Len()))
	b = appendKindCol(b, c.Kind)
	b = append(b, c.Flags...)
	b = appendI32Col(b, c.Peer)
	b = appendI32Col(b, c.Tag)
	b = appendI32Col(b, c.Size)
	b = appendI32Col(b, c.Step)
	b = appendI32Col(b, c.Stage)
	b = appendI32Col(b, c.SendSeq)
	b = appendF64Col(b, c.T0)
	b = appendF64Col(b, c.T1)
	b = appendF64Col(b, c.Arrival)
	return appendF64Col(b, c.SendEnd)
}

func appendSummary(b []byte, sum Summary) []byte {
	b = append(b, recSummary)
	b = appendUvarint(b, uint64(len(sum.Times)))
	b = appendF64Col(b, sum.Times)
	b = binary.LittleEndian.AppendUint64(b, f64bits(sum.MakeSpan))
	b = appendZigzag(b, sum.Messages)
	b = appendZigzag(b, sum.Bytes)
	b = appendUvarint(b, uint64(sum.Steps))
	return appendString(b, sum.ErrMsg)
}

// spillChunkIdx locates one encoded chunk.
type spillChunkIdx struct {
	off   int64
	size  int32
	count int32
}

// spillLaneIdx is one lane's chunk list in the index.
type spillLaneIdx struct {
	total  int
	chunks []spillChunkIdx
}

func appendIndex(b []byte, lanes []spillLaneIdx) []byte {
	b = append(b, recIndex)
	b = appendUvarint(b, uint64(len(lanes)))
	for i := range lanes {
		l := &lanes[i]
		b = appendUvarint(b, uint64(l.total))
		b = appendUvarint(b, uint64(len(l.chunks)))
		prev := int64(0)
		for _, ch := range l.chunks {
			b = appendUvarint(b, uint64(ch.off-prev))
			b = appendUvarint(b, uint64(ch.size))
			b = appendUvarint(b, uint64(ch.count))
			prev = ch.off
		}
	}
	return b
}

func appendFooter(b []byte, sumOff, idxOff int64) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(sumOff))
	b = binary.LittleEndian.AppendUint64(b, uint64(idxOff))
	return append(b, spillEndMagic...)
}

// --- streaming sink ------------------------------------------------------

// spillSink is the shared chunk writer of a spilling run: it encodes chunks
// and appends them to the output, tracking the index — those a recording
// run's lanes hand its encoder goroutine, or WriteSpill's. The writer state
// is behind mu; the underlying writer sees exactly one Write per record.
type spillSink struct {
	mu      sync.Mutex
	w       io.Writer
	off     int64
	err     error
	lanes   []spillLaneIdx
	nchunks int
	nevents int64
	buf     []byte

	// A recording run's encoder (startEncoder): lanes send on queue until
	// stop closes quit; done closes when the encoder has exited.
	queue chan spillQueued
	spare chan Cols // written columns, emptied, for lanes to fill again
	quit  chan struct{}
	done  chan struct{}
}

func newSpillSink(w io.Writer, meta Meta) (*spillSink, error) {
	s := &spillSink{w: w, lanes: make([]spillLaneIdx, meta.Procs)}
	s.buf = append(s.buf, spillMagic...)
	s.buf = appendUvarint(s.buf, spillVersion)
	s.buf = appendMeta(s.buf, meta)
	err := s.emit()
	return s, err
}

// emit writes and clears the staging buffer, advancing the offset.
func (s *spillSink) emit() error {
	if s.err != nil {
		return s.err
	}
	n, err := s.w.Write(s.buf)
	s.off += int64(n)
	s.buf = s.buf[:0]
	if err != nil {
		s.err = fmt.Errorf("trace: spill write: %w", err)
	}
	return s.err
}

// writeChunk encodes and appends one lane chunk, none after an error.
func (s *spillSink) writeChunk(rank int32, c *Cols) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	off := s.off
	s.buf = appendChunk(s.buf[:0], rank, c)
	size := len(s.buf)
	if s.emit() != nil {
		return
	}
	l := &s.lanes[rank]
	l.total += c.Len()
	l.chunks = append(l.chunks, spillChunkIdx{off: off, size: int32(size), count: int32(c.Len())})
	s.nchunks++
	s.nevents += int64(c.Len())
}

// spillQueueEvents bounds the events queued for the encoder: chunkFor's
// 64 MB target again. Lanes in step fill their chunks in one stage sweep, so
// the queue holds a chunk per lane and takes the burst without waiting.
const spillQueueEvents = 1 << 20

// startEncoder starts the goroutine that writes, in hand-off order, the
// chunks of procs lanes of chunk events each, and after stop what is still
// queued. A spare slot per queued chunk and one for the chunk being written
// lets it hand back every column set it has written.
func (s *spillSink) startEncoder(procs, chunk int) {
	depth := max(1, min(procs, spillQueueEvents/chunk))
	s.queue, s.spare = make(chan spillQueued, depth), make(chan Cols, depth+1)
	s.quit, s.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(s.done)
		for {
			select {
			case q := <-s.queue:
				s.writeChunk(q.rank, &q.c)
				q.c.truncate()
				select {
				case s.spare <- q.c:
				default:
				}
			case <-s.quit:
				if len(s.queue) == 0 {
					return
				}
			}
		}
	}()
}

// spillQueued is one lane chunk waiting for the encoder.
type spillQueued struct {
	rank int32
	c    Cols
}

// handOff queues a lane's columns for the encoder and returns empty ones for
// the lane to fill next: written ones if the encoder has some, else none.
// Once stop has begun it refuses c, without blocking, and returns it
// emptied.
func (s *spillSink) handOff(rank int32, c Cols) Cols {
	select {
	case <-s.quit: // refuse outright, so that a stopped encoder drains a bounded queue
		c.truncate()
		return c
	default:
	}
	select {
	case s.queue <- spillQueued{rank, c}:
	case <-s.quit:
		c.truncate()
		return c
	}
	select {
	case next := <-s.spare:
		return next
	default:
		return Cols{}
	}
}

// stop refuses later hand-offs and waits for the encoder to write what is
// queued, or to drop it once fail is the sink's error. EndRun calls it once.
func (s *spillSink) stop(fail error) {
	if fail != nil {
		s.mu.Lock()
		s.err = fail
		s.mu.Unlock()
	}
	close(s.quit)
	<-s.done
}

// stats reports chunks, events and bytes written.
func (s *spillSink) stats() (int, int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nchunks, s.nevents, s.off
}

// finish seals the file: summary, index, footer.
func (s *spillSink) finish(sum Summary) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	sumOff := s.off
	s.buf = appendSummary(s.buf[:0], sum)
	idxOff := sumOff + int64(len(s.buf))
	s.buf = appendIndex(s.buf, s.lanes)
	s.buf = appendFooter(s.buf, sumOff, idxOff)
	return s.emit()
}

// WriteSpill serializes any source canonically: lanes in rank order, fixed
// chunking, deterministic encodings — the bytes are a pure function of the
// run's content, so golden tests diff them directly and a streamed spill
// re-serialized through WriteSpill matches the same run recorded in RAM.
func WriteSpill(w io.Writer, src Source) error {
	sink, err := newSpillSink(w, src.RunMeta())
	if err != nil {
		return err
	}
	var part Cols
	cur := int32(0)
	flush := func() {
		if part.Len() > 0 {
			sink.writeChunk(cur, &part)
			part.truncate()
		}
	}
	err = src.eachLane(colsAll, func(rank int, c *Cols) {
		if int32(rank) != cur {
			flush()
			cur = int32(rank)
		}
		// Re-chunk to the canonical size regardless of source chunking.
		for i := 0; i < c.Len(); {
			n := min(canonicalChunkEvents-part.Len(), c.Len()-i)
			sub := c.slice(i, i+n)
			part.appendCols(&sub)
			if part.Len() == canonicalChunkEvents {
				flush()
			}
			i += n
		}
	})
	if err != nil {
		return err
	}
	flush()
	return sink.finish(src.RunSummary())
}

// --- reader ---------------------------------------------------------------

// ErrCorruptSpill is wrapped by every error that reports a spill file whose
// bytes do not parse or do not agree with each other: a truncated or damaged
// file, an index that points outside the file, a chunk whose content
// contradicts the index or the summary. Test for it with errors.Is.
var ErrCorruptSpill = errors.New("trace: corrupt spill")

// colSet names optional columns of a Cols, one bit each in field order.
// Every consumer of a lane says which columns it reads; the chunk decoder
// steps over the others and leaves them empty, so touching a column that was
// not asked for fails loudly. Kind is always decoded: it carries the length.
type colSet uint16

const (
	colFlags colSet = 1 << iota
	colPeer
	colTag
	colSize
	colStep
	colStage
	colSendSeq
	colT0
	colT1
	colArrival
	colSendEnd

	colsAll = colSendEnd<<1 - 1
)

// decoder walks one encoded buffer that starts at file offset base.
type decoder struct {
	b    []byte
	pos  int
	base int64
	err  error
}

// corrupt builds the error for a defect found at file offset off.
func corrupt(what string, off int64) error {
	return fmt.Errorf("%w: %s at offset %d", ErrCorruptSpill, what, off)
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = corrupt(what, d.base+int64(d.pos))
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.pos >= len(d.b) {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

// uvarintTail finishes a varint whose first byte had the continuation bit
// set; x holds that byte's low seven bits. It reports false on truncation and
// on a value that overflows 64 bits, the two conditions binary.Uvarint
// rejects.
func uvarintTail(b []byte, pos int, x uint64) (uint64, int, bool) {
	for shift := uint(7); shift < 70; shift += 7 {
		if pos >= len(b) {
			return 0, pos, false
		}
		c := b[pos]
		pos++
		if c < 0x80 {
			if shift == 63 && c > 1 {
				return 0, pos, false
			}
			return x | uint64(c)<<shift, pos, true
		}
		x |= uint64(c&0x7f) << shift
	}
	return 0, pos, false
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil || d.pos >= len(d.b) {
		d.fail("truncated varint")
		return 0
	}
	x, pos, ok := uint64(d.b[d.pos]), d.pos+1, true
	if x >= 0x80 {
		if x, pos, ok = uvarintTail(d.b, pos, x&0x7f); !ok {
			d.fail("bad varint")
			return 0
		}
	}
	d.pos = pos
	return x
}

func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

func (d *decoder) zigzag() int64 { return unzigzag(d.uvarint()) }

// count reads a uvarint that sizes something the file must then hold, and
// fails when it exceeds max — before the caller allocates for it.
func (d *decoder) count(max int, what string) int {
	v := d.uvarint()
	if d.err == nil && v > uint64(max) {
		d.fail("implausible " + what)
		return 0
	}
	return int(v)
}

// rest returns the bytes left in the buffer.
func (d *decoder) rest() int { return len(d.b) - d.pos }

func (d *decoder) string() string {
	return string(d.rawBytes(d.count(d.rest(), "string length")))
}

func (d *decoder) rawBytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > d.rest() {
		d.fail("truncated block")
		return nil
	}
	b := d.b[d.pos : d.pos+n]
	d.pos += n
	return b
}

// kindCol appends n raw kind bytes to out.
func (d *decoder) kindCol(out []Kind, n int) []Kind {
	raw := d.rawBytes(n)
	base := len(out)
	out = slices.Grow(out, len(raw))[:base+len(raw)]
	for i, kb := range raw {
		out[base+i] = Kind(kb)
	}
	return out
}

// skipVarints steps over n varints by counting terminator bytes (high bit
// clear), a word at a time while a whole word cannot overshoot.
func (d *decoder) skipVarints(n int) {
	if d.err != nil {
		return
	}
	b, pos := d.b, d.pos
	for n >= 8 && pos+8 <= len(b) {
		w := binary.LittleEndian.Uint64(b[pos:])
		n -= 8 - bits.OnesCount64(w&0x8080808080808080)
		pos += 8
	}
	for n > 0 && pos < len(b) {
		if b[pos] < 0x80 {
			n--
		}
		pos++
	}
	d.pos = pos
	if n > 0 {
		d.fail("truncated varint column")
	}
}

// i32Col appends n zigzag-varint delta-decoded values to out. Every value
// takes at least a byte, which bounds n before anything is allocated.
func (d *decoder) i32Col(out []int32, n int) []int32 {
	if d.err != nil {
		return out
	}
	if n > d.rest() {
		d.fail("truncated int column")
		return out
	}
	base := len(out)
	out = slices.Grow(out, n)[:base+n]
	b, pos, ok := d.b, d.pos, true
	prev := int32(0)
	for i := base; i < len(out); i++ {
		if pos >= len(b) {
			ok = false
			break
		}
		x := uint64(b[pos])
		pos++
		if x >= 0x80 {
			if x, pos, ok = uvarintTail(b, pos, x&0x7f); !ok {
				break
			}
		}
		prev += int32(unzigzag(x))
		out[i] = prev
	}
	d.pos = pos
	if !ok {
		d.fail("bad varint in int column")
		return out[:base]
	}
	return out
}

// f64Col reads one float column of n values, appending them to *out when
// keep is set and stepping over them otherwise.
func (d *decoder) f64Col(out *[]float64, n int, keep bool) {
	switch mode := d.byte(); {
	case d.err != nil:
	case mode == floatRaw:
		if n > d.rest()/8 {
			d.fail("truncated float column")
			return
		}
		raw := d.rawBytes(8 * n)
		if !keep {
			return
		}
		base := len(*out)
		dst := slices.Grow(*out, n)[:base+n]
		for i := 0; i < n; i++ {
			dst[base+i] = f64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		*out = dst
	case mode == floatDelta:
		if !keep {
			d.skipVarints(n)
			return
		}
		if n > d.rest() {
			d.fail("truncated float column")
			return
		}
		base := len(*out)
		dst := slices.Grow(*out, n)[:base+n]
		b, pos, ok := d.b, d.pos, true
		prev := uint64(0)
		for i := base; i < len(dst); i++ {
			if pos >= len(b) {
				ok = false
				break
			}
			x := uint64(b[pos])
			pos++
			if x >= 0x80 {
				if x, pos, ok = uvarintTail(b, pos, x&0x7f); !ok {
					break
				}
			}
			prev += uint64(unzigzag(x))
			dst[i] = f64frombits(prev)
		}
		d.pos = pos
		if !ok {
			d.fail("bad varint in float column")
			return
		}
		*out = dst
	default:
		d.fail("unknown float column mode")
	}
}

func (d *decoder) meta() Meta {
	var m Meta
	// Procs is checked against the index's lane count, which the file's
	// size bounds; here it only has to fit an int.
	m.Procs = d.count(math.MaxInt32, "rank count")
	m.SeedKnown = d.byte() == 1
	m.Seed = d.zigzag()
	m.AckSends = d.byte() == 1
	m.Machine = d.string()
	m.Label = d.string()
	nf := d.count(d.rest(), "fault line count")
	for i := 0; i < nf && d.err == nil; i++ {
		m.Faults = append(m.Faults, d.string())
	}
	return m
}

// decodeChunk parses one 'C' record, appending its events to dst: Kind and
// the columns in want; the others are stepped over, and decoding stops after
// the last wanted column. It returns the record's rank and event count.
func (d *decoder) decodeChunk(dst *Cols, want colSet) (rank uint64, n int) {
	if d.byte() != recChunk {
		d.fail("expected chunk record")
	}
	rank = d.uvarint()
	n = d.count(d.rest(), "chunk event count")
	dst.Kind = d.kindCol(dst.Kind, n)
	if want&colFlags != 0 {
		dst.Flags = append(dst.Flags, d.rawBytes(n)...)
	} else {
		d.rawBytes(n)
	}
	i32 := [...]*[]int32{&dst.Peer, &dst.Tag, &dst.Size, &dst.Step, &dst.Stage, &dst.SendSeq}
	for k, col := range i32 {
		bit := colPeer << k
		if want&^(bit-1) == 0 {
			return rank, n
		}
		if want&bit != 0 {
			*col = d.i32Col(*col, n)
		} else {
			d.skipVarints(n)
		}
	}
	f64 := [...]*[]float64{&dst.T0, &dst.T1, &dst.Arrival, &dst.SendEnd}
	for k, col := range f64 {
		bit := colT0 << k
		if want&^(bit-1) == 0 {
			return rank, n
		}
		d.f64Col(col, n, want&bit != 0)
	}
	return rank, n
}

// SpillReadStats counts the work of a Spill's chunk reader since the file
// was opened.
type SpillReadStats struct {
	// ChunksDecoded is the number of chunk records fetched and decoded.
	ChunksDecoded int64
	// BytesRead is the encoded size of those records.
	BytesRead int64
	// CacheHits is the number of window reads (the critical-path walk)
	// answered from the chunk cache without touching the file.
	CacheHits int64
}

// Spill reads a spill file through the Source interface: metadata, summary
// and the chunk index are loaded and checked eagerly; events are decoded a
// chunk at a time, on demand, and only the columns the consumer reads. A
// lane stream decodes into a slot of its own, so any number of streaming
// passes may run at once; the window reads of CriticalPathOf share the
// cache below, whose entries are reused as the walk moves on, so run one
// critical-path walk per Spill at a time.
type Spill struct {
	r       io.ReaderAt
	closer  io.Closer
	meta    Meta
	sum     Summary
	lanes   []spillLaneIdx
	nevents int // over all lanes; bounds every Stage

	chunksDecoded, bytesRead, cacheHits atomic.Int64

	mu    sync.Mutex
	cache []spillCacheChunk // window reads, most recent first
}

// chunkSlot is the storage of one decoded chunk: the record's bytes and the
// columns decoded from them, both reused from chunk to chunk.
type chunkSlot struct {
	raw  []byte
	cols Cols
}

// spillCacheChunk is one decoded chunk of the window cache.
type spillCacheChunk struct {
	rank, idx int
	have      colSet
	slot      *chunkSlot
}

// spillCacheChunks bounds the window cache. A critical-path residency sits
// in one chunk and now and then its predecessor; a further entry is hit only
// when the path comes back to a rank within the same chunk, which the
// collectives measured so far almost never do, so the cache is mostly the
// walk's pool of decode slots. Measured on the 827 hops of a P=1024 total
// exchange (BenchmarkCriticalPathSpill): 5 hits, none of them on the most
// recent entry — with one slot CacheHits reads 0 and the walk decodes 830
// chunks instead of 825 in the same 29 ms.
const spillCacheChunks = 4

// OpenSpill parses a spill image from a random-access reader of the given
// size and checks its header, summary and index against that size; a file
// that fails a check is reported with an error wrapping ErrCorruptSpill.
func OpenSpill(r io.ReaderAt, size int64) (*Spill, error) {
	if size < int64(len(spillMagic))+24 {
		return nil, fmt.Errorf("%w: too short (%d bytes)", ErrCorruptSpill, size)
	}
	foot := make([]byte, 24)
	if _, err := r.ReadAt(foot, size-24); err != nil {
		return nil, fmt.Errorf("trace: reading spill footer: %w", err)
	}
	if string(foot[16:]) != spillEndMagic {
		return nil, fmt.Errorf("%w: not a sealed spill file (bad footer magic; was the run torn down before EndRun?)", ErrCorruptSpill)
	}
	sumOff := int64(binary.LittleEndian.Uint64(foot[0:8]))
	idxOff := int64(binary.LittleEndian.Uint64(foot[8:16]))
	if sumOff < int64(len(spillMagic)) || idxOff < sumOff || idxOff > size-24 {
		return nil, fmt.Errorf("%w: footer offsets outside the file", ErrCorruptSpill)
	}

	// The metadata usually fits a fixed probe; when decoding runs off its
	// end, retry over everything before the summary.
	var meta Meta
	var hd *decoder
	for probe := min(sumOff, 4096); ; probe = sumOff {
		head := make([]byte, probe)
		if _, err := r.ReadAt(head, 0); err != nil {
			return nil, fmt.Errorf("trace: reading spill header: %w", err)
		}
		if string(head[:len(spillMagic)]) != spillMagic {
			return nil, fmt.Errorf("%w: not a spill file (bad magic)", ErrCorruptSpill)
		}
		hd = &decoder{b: head, pos: len(spillMagic)}
		if v := hd.uvarint(); hd.err == nil && v != spillVersion {
			return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorruptSpill, v, spillVersion)
		}
		meta = hd.meta()
		if hd.err == nil {
			break
		}
		if probe == sumOff {
			return nil, hd.err
		}
	}
	chunkLo := int64(hd.pos) // the chunk region is [chunkLo, sumOff)

	tail := make([]byte, size-24-sumOff)
	if _, err := r.ReadAt(tail, sumOff); err != nil {
		return nil, fmt.Errorf("trace: reading spill summary/index: %w", err)
	}
	td := &decoder{b: tail, base: sumOff}
	if td.byte() != recSummary {
		td.fail("expected summary record")
	}
	var sum Summary
	nt := td.count(td.rest(), "finish time count")
	td.f64Col(&sum.Times, nt, true)
	if raw := td.rawBytes(8); raw != nil {
		sum.MakeSpan = f64frombits(binary.LittleEndian.Uint64(raw))
	}
	sum.Messages = td.zigzag()
	sum.Bytes = td.zigzag()
	steps := td.uvarint()
	sum.ErrMsg = td.string()

	if td.err == nil && int64(td.pos) != idxOff-sumOff {
		td.fail("summary/index offset mismatch")
	}
	if td.byte() != recIndex {
		td.fail("expected index record")
	}
	// A lane takes at least two index bytes and a chunk three, which bounds
	// both counts by the bytes left before anything is sized by them.
	nl := td.count(td.rest()/2, "lane count")
	if td.err == nil && (nl != meta.Procs || len(sum.Times) > nl) {
		td.fail("lane count disagrees with the header or the summary")
	}
	lanes := make([]spillLaneIdx, 0, nl)
	nevents, claimed := 0, int64(0)
	for i := 0; i < nl && td.err == nil; i++ {
		var l spillLaneIdx
		l.total = td.count(math.MaxInt32, "lane event total")
		nc := td.count(td.rest()/3, "lane chunk count")
		l.chunks = make([]spillChunkIdx, 0, nc)
		prev, counted := int64(0), 0
		for j := 0; j < nc && td.err == nil; j++ {
			delta := td.uvarint()
			if delta > uint64(sumOff-prev) {
				td.fail("chunk offset outside the chunk region")
				break
			}
			off := prev + int64(delta)
			sz := td.count(int(min(sumOff-off, math.MaxInt32)), "chunk size")
			// An event takes at least a byte of the record.
			cnt := td.count(sz, "chunk event count")
			if td.err == nil && (off < chunkLo || sz == 0 || cnt == 0) {
				td.fail("empty chunk or chunk offset outside the chunk region")
			}
			l.chunks = append(l.chunks, spillChunkIdx{off: off, size: int32(sz), count: int32(cnt)})
			prev = off
			counted += cnt
			claimed += int64(sz)
		}
		if td.err == nil && counted != l.total {
			td.fail("lane total disagrees with its chunk counts")
		}
		nevents += counted
		lanes = append(lanes, l)
	}
	// Chunks that do not overlap cannot claim more than the region holds;
	// the check keeps an index of overlapping chunks from describing more
	// events than the file has bytes.
	if td.err == nil && claimed > sumOff-chunkLo {
		td.fail("chunks claim more bytes than the chunk region holds")
	}
	// A step index is stamped by a boundary mark, so a run has no more step
	// buckets than events (plus the trailing one).
	if td.err == nil && steps > uint64(nevents)+1 {
		td.fail("implausible superstep count")
	}
	if td.err != nil {
		return nil, td.err
	}
	sum.Steps = int(steps)
	return &Spill{r: r, meta: meta, sum: sum, lanes: lanes, nevents: nevents}, nil
}

// OpenSpillFile opens a spill file from disk; Close releases it.
func OpenSpillFile(path string) (*Spill, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sp, err := OpenSpill(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	sp.closer = f
	return sp, nil
}

// Close releases the underlying file (no-op for OpenSpill over a buffer).
func (s *Spill) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// RunMeta implements Source.
func (s *Spill) RunMeta() Meta { return s.meta }

// RunSummary implements Source.
func (s *Spill) RunSummary() Summary { return s.sum }

// NumLanes implements Source.
func (s *Spill) NumLanes() int { return len(s.lanes) }

// LaneLen implements Source (index lookup; no decoding).
func (s *Spill) LaneLen(rank int) int { return s.lanes[rank].total }

// ReadStats reports what the chunk reader has done since the file was
// opened.
func (s *Spill) ReadStats() SpillReadStats {
	return SpillReadStats{
		ChunksDecoded: s.chunksDecoded.Load(),
		BytesRead:     s.bytesRead.Load(),
		CacheHits:     s.cacheHits.Load(),
	}
}

// readChunk is the chunk reader: it fetches chunk ch of rank's lane, appends
// the columns in want to slot.cols and checks what it decoded against the
// index and the summary, so no consumer indexes by a value the file made up.
func (s *Spill) readChunk(rank int, ch spillChunkIdx, want colSet, slot *chunkSlot) error {
	slot.raw = slices.Grow(slot.raw[:0], int(ch.size))[:ch.size]
	if _, err := s.r.ReadAt(slot.raw, ch.off); err != nil {
		return fmt.Errorf("trace: reading spill chunk: %w", err)
	}
	s.chunksDecoded.Add(1)
	s.bytesRead.Add(int64(ch.size))
	c := &slot.cols
	base := c.Len()
	d := &decoder{b: slot.raw, base: ch.off}
	gotRank, n := d.decodeChunk(c, want)
	switch {
	case d.err != nil:
		return d.err
	case gotRank != uint64(rank) || n != int(ch.count):
		return corrupt("chunk header disagrees with the index", ch.off)
	case slices.Max(c.Kind[base:]) >= numKinds: // n > 0: the index has no empty chunk
		return corrupt("unknown event kind in chunk", ch.off)
	case want&colStep != 0 && !int32sWithin(c.Step[base:], 0, s.sum.Steps):
		return corrupt("event step outside the summary's superstep count in chunk", ch.off)
	case want&colStage != 0 && !int32sWithin(c.Stage[base:], -1, s.nevents):
		return corrupt("event stage beyond the run's event count in chunk", ch.off)
	}
	return nil
}

// int32sWithin reports whether every value of a non-empty column lies in
// [lo, hi).
func int32sWithin(col []int32, lo, hi int) bool {
	return int(slices.Min(col)) >= lo && int(slices.Max(col)) < hi
}

// laneChunks implements Source: it decodes one chunk at a time into a slot
// of its own, so a k-way merge over all lanes holds one chunk per lane.
func (s *Spill) laneChunks(rank int, want colSet) chunkPull {
	chunks := s.lanes[rank].chunks
	i := 0
	var slot chunkSlot
	return func() (*Cols, error) {
		if i >= len(chunks) {
			return nil, nil
		}
		slot.cols.truncate()
		if err := s.readChunk(rank, chunks[i], want, &slot); err != nil {
			return nil, err
		}
		i++
		return &slot.cols, nil
	}
}

// readAheadChunks is the number of decode slots of eachLane (handing them
// over in batches of 8 measured no faster on BenchmarkRollupSpill).
const readAheadChunks = 8

// eachLane implements Source with a read-ahead: one goroutine decodes every
// chunk in rank-then-chunk order into slots of its own while fn consumes
// them in the same order. It stops at the first read error, and is joined
// before eachLane returns, whether fn saw every chunk or not.
func (s *Spill) eachLane(want colSet, fn func(rank int, c *Cols)) error {
	type decoded struct {
		rank int
		slot *chunkSlot
		err  error
	}
	full, free := make(chan decoded, readAheadChunks), make(chan *chunkSlot, readAheadChunks)
	for range readAheadChunks {
		free <- &chunkSlot{}
	}
	quit := make(chan struct{})
	go func() {
		defer close(full)
		for rank := range s.lanes {
			for _, ch := range s.lanes[rank].chunks {
				var slot *chunkSlot
				select {
				case slot = <-free:
				case <-quit:
					return
				}
				slot.cols.truncate()
				err := s.readChunk(rank, ch, want, slot)
				full <- decoded{rank, slot, err} // a slot's place: never blocks
				if err != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(quit)
		for range full { // until the decoder has exited
		}
	}()
	for d := range full {
		if d.err != nil {
			return d.err
		}
		fn(d.rank, &d.slot.cols)
		free <- d.slot
	}
	return nil
}

// laneWindow implements Source through the chunk cache.
func (s *Spill) laneWindow(rank, i int, want colSet) (*Cols, int, error) {
	chunks := s.lanes[rank].chunks
	idx, base := 0, 0
	for ; base+int(chunks[idx].count) <= i; idx++ {
		base += int(chunks[idx].count)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for j, e := range s.cache {
		if e.rank == rank && e.idx == idx && e.have&want == want {
			copy(s.cache[1:j+1], s.cache[:j])
			s.cache[0] = e
			s.cacheHits.Add(1)
			return &e.slot.cols, base, nil
		}
	}
	var slot *chunkSlot
	if n := len(s.cache); n == spillCacheChunks {
		slot = s.cache[n-1].slot
		s.cache = s.cache[:n-1]
		slot.cols.truncate()
	} else {
		slot = &chunkSlot{}
	}
	if err := s.readChunk(rank, chunks[idx], want, slot); err != nil {
		return nil, 0, err
	}
	s.cache = append(s.cache, spillCacheChunk{})
	copy(s.cache[1:], s.cache)
	s.cache[0] = spillCacheChunk{rank: rank, idx: idx, have: want, slot: slot}
	return &slot.cols, base, nil
}
