package trace

// Hooks for the external test package: simnet imports this package, so the
// tests and benchmarks that record runs through the engines sit outside it
// and reach the chunk layer through these.

// Projections are the column sets the benchmarks decode under.
var Projections = map[string]colSet{
	"all":           colsAll,
	"rollup":        colsRollup,
	"critical_path": colsCriticalPath,
}

// StageDepth is the staging block depth of a recorder of procs lanes.
var StageDepth = stageDepth

// NumChunks returns the number of chunk records of rank's lane.
func (s *Spill) NumChunks(rank int) int { return len(s.lanes[rank].chunks) }

// EachChunk streams rank's lane chunk by chunk, decoded under want.
func (s *Spill) EachChunk(rank int, want colSet, fn func(*Cols)) error {
	return eachChunk(s, rank, want, fn)
}

// EachLane streams every lane in rank-then-chunk order, decoded under want.
func (s *Spill) EachLane(want colSet, fn func(rank int, c *Cols)) error {
	return eachLane(s, want, fn)
}

// Clone copies the columns out of a decode slot.
func (c *Cols) Clone() Cols {
	var out Cols
	out.appendCols(c)
	return out
}

// AppendChunk encodes one chunk record.
func AppendChunk(b []byte, rank int32, c *Cols) []byte { return appendChunk(b, rank, c) }
