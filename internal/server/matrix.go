package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
)

// Matrix is one uploaded P×P pairwise parameter matrix, stored flat in
// row-major order. The only way to fill one is UnmarshalJSON, which is the
// scanner below: the elements are converted, checked and stored in the one
// pass that reads them, so code handed a Matrix never walks its elements
// again to validate them. A Matrix owns its storage — nothing in it points
// into the bytes it was scanned from — and never writes it again, so Matrix
// values and machines may share one (see the upload table, uploads.go). The
// zero value is an absent matrix and is omitted when marshalled under
// `omitzero`.
type Matrix struct {
	// n is the dimension (the length of the first row) and cells the n×n
	// elements; cells is nil for an absent matrix (key omitted, or null) and
	// for one that carries a defect.
	n     int
	cells *matrixCells
	// zero is 1 + the flat index of the first zero off the diagonal, 0 if
	// there is none; only the latency matrix is asked.
	zero int
	// defect is the first thing wrong with the matrix as a machine parameter
	// — a negative element, a row longer or shorter than the first, a row
	// count different from the row length — worded as today's error text
	// minus the leading matrix name, which the scanner does not know:
	// resolveMatrices reports it as invalid_machine. Scanning stops there.
	defect string
}

// matrixCells holds a scanned matrix's elements, v[i*n+j]. It is the heap
// object that owns them: the upload table points at it weakly, and every
// Matrix and machine that reads the elements holds it, so a table entry lives
// exactly as long as one of them does.
type matrixCells struct{ v []float64 }

// elems returns the elements, nil for an absent matrix or a defect.
func (m *Matrix) elems() []float64 {
	if m.cells == nil {
		return nil
	}
	return m.cells.v
}

// errMatrixDefect is scan's signal that it stopped at a defect it recorded
// in the Matrix.
var errMatrixDefect = errors.New("server: matrix defect")

// UnmarshalJSON scans one JSON matrix — an array of equally long arrays of
// numbers, or null — into m, replacing what m held. Malformed JSON, a value
// that is not a number where one belongs, and a number outside float64 range
// are errors (the request is invalid_request, as encoding/json made it); a
// well-formed matrix that cannot be a machine parameter is recorded in m and
// reported when the machine is resolved (invalid_machine).
func (m *Matrix) UnmarshalJSON(data []byte) error {
	end, err := m.scan(data, 0)
	if err == errMatrixDefect {
		return nil
	}
	if err != nil {
		return err
	}
	if end = skipSpace(data, end); end != len(data) {
		return fmt.Errorf("server: matrix: invalid character %q after the value", data[end])
	}
	return nil
}

// MarshalJSON writes the rows back, null for an absent matrix.
func (m Matrix) MarshalJSON() ([]byte, error) {
	v := m.elems()
	if v == nil {
		return []byte("null"), nil
	}
	out := make([]byte, 0, 2+len(v)*12)
	out = append(out, '[')
	for i := 0; i < m.n; i++ {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, '[')
		for j, f := range v[i*m.n : (i+1)*m.n] {
			if j > 0 {
				out = append(out, ',')
			}
			out = strconv.AppendFloat(out, f, 'g', -1, 64)
		}
		out = append(out, ']')
	}
	return append(out, ']'), nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scan reads the JSON value starting at b[i:] into m and returns the offset
// just past it. It returns errMatrixDefect after recording a defect (the
// offset is then meaningless), and any other error for bytes that are not a
// JSON matrix at all.
//
// Storage is n×n for a first row of n entries, allocated before the first
// number is converted — but only if the bytes that follow could hold the
// other n-1 rows at two bytes an element, so what a body can make the
// scanner allocate is bounded by four times its own length. A matrix that
// fails that test is scanned without being stored and always ends in a
// defect: some row is short, or the rows run out.
func (m *Matrix) scan(b []byte, i int) (int, error) {
	*m = Matrix{}
	i = skipSpace(b, i)
	if isNull(b, i) {
		return i + 4, nil
	}
	if i >= len(b) || b[i] != '[' {
		return 0, unexpected(b, i, reflect.TypeOf([][]float64(nil)))
	}
	i = skipSpace(b, i+1)

	n := firstRowLen(b, i)
	var v []float64
	if n == 0 || 2*n*(n-1) <= len(b)-i {
		v = make([]float64, n*n)
	}
	rows, zero := 0, 0
	for more := i >= len(b) || b[i] != ']'; more; rows++ {
		var dst []float64 // nil for a row that has no place: one too many, or nothing stored
		if rows < n && v != nil {
			dst = v[rows*n : (rows+1)*n]
		}
		entries, zeroCol, next, err := m.scanRow(b, i, rows, dst)
		if err != nil {
			return 0, err
		}
		if entries != n {
			return m.fail(" matrix row %d has %d entries, want %d", rows, entries, n)
		}
		if zero == 0 && zeroCol >= 0 {
			zero = rows*n + zeroCol + 1
		}
		if i = skipSpace(b, next); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
		} else {
			more = false
		}
	}
	if i >= len(b) || b[i] != ']' {
		return 0, unexpected(b, i, nil)
	}
	if rows != n || v == nil {
		return m.fail(" matrix row 0 has %d entries, want %d", n, rows)
	}
	m.n, m.cells, m.zero = n, &matrixCells{v}, zero
	return i + 1, nil
}

// scanRow reads row number row at b[i:] — an array of numbers, or null
// (encoding/json's empty row) — storing its first len(dst) entries in dst.
// It returns how many entries the row has, the column of its first zero off
// the diagonal (-1: none) and the offset just past the row; a negative entry
// is the defect scan stops at.
func (m *Matrix) scanRow(b []byte, i, row int, dst []float64) (entries, zeroCol, end int, err error) {
	zeroCol = -1
	if isNull(b, i) {
		return 0, zeroCol, i + 4, nil
	}
	if i >= len(b) || b[i] != '[' {
		return 0, 0, 0, unexpected(b, i, reflect.TypeOf(dst))
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return 0, zeroCol, i + 1, nil
	}
	for j := 0; ; j++ {
		f, next, ok := scanNumber(b, i)
		switch {
		case ok:
			i = next
		case isNull(b, i): // encoding/json leaves the element zero
			i += 4
		default:
			return 0, 0, 0, unexpected(b, i, reflect.TypeOf(f))
		}
		if f < 0 {
			_, err = m.fail("[%d][%d] = %v must be finite and >= 0", row, j, f)
			return 0, 0, 0, err
		}
		if j < len(dst) {
			dst[j] = f
		}
		if f == 0 && j != row && zeroCol < 0 {
			zeroCol = j
		}
		if i = skipSpace(b, i); i >= len(b) || b[i] != ',' {
			if i >= len(b) || b[i] != ']' {
				return 0, 0, 0, unexpected(b, i, nil)
			}
			return j + 1, zeroCol, i + 1, nil
		}
		i = skipSpace(b, i+1)
	}
}

// fail records the defect scan stopped at.
func (m *Matrix) fail(format string, args ...any) (int, error) {
	*m = Matrix{defect: fmt.Sprintf(format, args...)}
	return 0, errMatrixDefect
}

func isNull(b []byte, i int) bool {
	return i+4 <= len(b) && b[i] == 'n' && b[i+1] == 'u' && b[i+2] == 'l' && b[i+3] == 'l'
}

// firstRowLen counts the entries of the row that starts at b[i:] by its
// commas, without converting anything: 0 for an empty or null row. The count
// only sizes the storage; the scan checks every row against it, the first
// included.
func firstRowLen(b []byte, i int) int {
	if i >= len(b) || b[i] != '[' {
		return 0
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return 0
	}
	n := 1
	for ; i < len(b) && b[i] != ']'; i++ {
		if b[i] == ',' {
			n++
		}
	}
	return n
}

// unexpected words the error for bytes that are not what a matrix holds at
// b[i:]. Where the bytes begin some other JSON value and want names the Go
// type the position decodes into, it is encoding/json's type error.
func unexpected(b []byte, i int, want reflect.Type) error {
	if i >= len(b) {
		return fmt.Errorf("server: matrix: unexpected end of JSON input")
	}
	var kind string
	switch c := b[i]; {
	case c == '"':
		kind = "string"
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		end := i + 1
		for end < len(b) && (b[end] == '.' || b[end] == '-' || b[end] == '+' || b[end] == 'e' || b[end] == 'E' || '0' <= b[end] && b[end] <= '9') {
			end++
		}
		kind = "number " + string(b[i:end])
	}
	if kind == "" || want == nil {
		return fmt.Errorf("server: matrix: invalid character %q at offset %d", b[i], i)
	}
	return &json.UnmarshalTypeError{Value: kind, Type: want, Offset: int64(i)}
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// scanNumber converts the JSON number at b[i:] and returns the offset just
// past it; ok is false if no number in float64 range starts there (i then
// stays at the number's first byte). It accepts exactly JSON's grammar — no
// leading zeros, no '+', no bare '.' — and leaves what follows the number to
// the caller.
//
// The conversion is strconv.ParseFloat's exact path inlined: a mantissa below
// 2^53 is a float64 exactly, a power of ten up to 10^22 is one too, so one
// IEEE multiplication or division of the two is the correctly rounded value —
// what ParseFloat returns (pinned bit for bit by TestScanNumberMatchesStrconv).
// Every spelling the path does not cover — twenty or more digits, decimal
// exponents beyond ±22 — goes to ParseFloat itself.
func scanNumber(b []byte, i int) (f float64, end int, ok bool) {
	s, k := b[i:], 0
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		k = 1
	}
	// mant × 10^exp10 is the number; digits counts every digit that went into
	// mant, leading zeros included, so up to 19 of them cannot overflow it.
	var (
		mant   uint64
		exp10  int
		digits = k
	)
	switch {
	case k < len(s) && s[k] == '0':
		k++
	case k < len(s) && s[k]-'1' < 9:
		for ; k < len(s) && s[k]-'0' < 10; k++ {
			mant = mant*10 + uint64(s[k]-'0')
		}
	default:
		return 0, i, false
	}
	digits = k - digits
	if k < len(s) && s[k] == '.' {
		k++
		point := k
		for ; k < len(s) && s[k]-'0' < 10; k++ {
			mant = mant*10 + uint64(s[k]-'0')
		}
		if k == point {
			return 0, i, false
		}
		exp10 = point - k
		digits += k - point
	}
	if k < len(s) && s[k]|0x20 == 'e' {
		k++
		eneg := false
		if k < len(s) && (s[k] == '+' || s[k] == '-') {
			eneg = s[k] == '-'
			k++
		}
		first, e := k, 0
		for ; k < len(s) && s[k]-'0' < 10; k++ {
			if e < 10000 {
				e = e*10 + int(s[k]-'0')
			}
		}
		if k == first {
			return 0, i, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}

	switch {
	case digits > 19 || mant >= 1<<53:
	case mant == 0 || exp10 == 0:
		f, ok = float64(mant), true
	case 0 < exp10 && exp10 <= 22:
		f, ok = float64(mant)*pow10[exp10], true
	case -22 <= exp10 && exp10 < 0:
		f, ok = float64(mant)/pow10[-exp10], true
	}
	if !ok {
		var err error
		if f, err = strconv.ParseFloat(string(s[:k]), 64); err != nil {
			return 0, i, false // out of range: the grammar was checked above
		}
		return f, i + k, true
	}
	if neg {
		f = -f
	}
	return f, i + k, true
}
