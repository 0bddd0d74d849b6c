package server

import (
	"bytes"
	"encoding/json"
	"io"
)

// Request decoding. encoding/json walks a body twice before an Unmarshaler
// sees a byte of it (once to validate, once to find the value's end), which
// for an uploaded machine — 850 KB of numbers at P=128 — costs several times
// what scanning the numbers does. So the handler lifts the four matrices out
// of the body itself: it walks the few keys around them, hands each matrix
// where it lies to the server's upload table (uploads.go), which gives back
// a matrix it holds for the same bytes or else scans it (Matrix.scan, the
// code behind Matrix.UnmarshalJSON), and gives encoding/json the rest — the
// request with each matrix replaced by null, a few hundred bytes — under the
// same DisallowUnknownFields as ever.
//
// The lift is an optimisation of the plain decode, never a second opinion:
// it only recognises the spelling a client would write (the keys "profile",
// "matrices", "latency", "gap", "beta", "overhead", each exact, unescaped and
// at most once), and whenever it declines — any other spelling, a matrix the
// scanner stops in, an envelope encoding/json rejects — the body is decoded
// again the plain way, which reaches the same scanner through UnmarshalJSON
// and is the authority on every error.

// decodeRequest decodes a request body into req, looking the lifted matrices
// up in uploads (nil: scan every one).
func decodeRequest(body *bytes.Buffer, req *PredictRequest, uploads *uploadTable) error {
	if bytes.Contains(body.Bytes(), []byte(`"matrices"`)) && liftMatrices(body.Bytes(), req, uploads) {
		return nil
	}
	*req = PredictRequest{}
	return decodeStrict(body, req)
}

// decodeStrict is the plain decode: the first JSON value of r into req (a
// *PredictRequest; the tests' reference type too), unknown fields refused,
// whatever follows the value ignored.
func decodeStrict(r io.Reader, req any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// liftPath leads from the top-level object to the one holding the matrices.
var liftPath = [...]string{"profile", "matrices"}

// matrixKeys are the lifted members, in the order of lifter.mats.
var matrixKeys = [...]string{"latency", "gap", "beta", "overhead"}

// lifter walks a request body once. env collects the envelope: the body with
// every lifted matrix replaced by null; body[:last] is the part already
// copied (or replaced).
type lifter struct {
	b       []byte
	i       int
	env     []byte
	last    int
	mats    [len(matrixKeys)]Matrix
	seen    [len(matrixKeys)]bool
	uploads *uploadTable
}

// liftMatrices decodes body into req with the matrices scanned in place, or
// found in uploads. It reports false, with req in an unspecified state, when
// the body is not spelled the way it knows or holds any error at all.
func liftMatrices(body []byte, req *PredictRequest, uploads *uploadTable) bool {
	l := lifter{b: body, env: make([]byte, 0, 1024), uploads: uploads}
	if !l.object(0) {
		return false
	}
	l.env = append(l.env, body[l.last:]...)
	if decodeStrict(bytes.NewReader(l.env), req) != nil || req.Profile.Matrices == nil {
		return false
	}
	mp := req.Profile.Matrices
	for k, dst := range [...]*Matrix{&mp.Latency, &mp.Gap, &mp.Beta, &mp.Overhead} {
		if l.seen[k] {
			*dst = l.mats[k]
		}
	}
	return true
}

// object walks the JSON object at the cursor: the top-level object at depth
// 0, the profile at 1, the matrices object at 2. At depths 0 and 1 it
// descends into the liftPath member and skips every other value; at depth 2
// it scans the matrixKeys members. It reports false for anything it will not
// vouch for: bytes that are not an object, a key that is escaped, a key that
// names a member it handles but is spelled in another case (encoding/json
// would match it) or appears twice (encoding/json would merge them).
func (l *lifter) object(depth int) bool {
	if l.i = skipSpace(l.b, l.i); l.i >= len(l.b) || l.b[l.i] != '{' {
		return false
	}
	l.i = skipSpace(l.b, l.i+1)
	if l.i < len(l.b) && l.b[l.i] == '}' {
		l.i++
		return true
	}
	descended := false
	for {
		// "key" :
		if l.i >= len(l.b) || l.b[l.i] != '"' {
			return false
		}
		end := l.i + 1
		for end < len(l.b) && l.b[end] != '"' && l.b[end] != '\\' {
			end++
		}
		if end >= len(l.b) || l.b[end] != '"' {
			return false
		}
		key := l.b[l.i+1 : end]
		if l.i = skipSpace(l.b, end+1); l.i >= len(l.b) || l.b[l.i] != ':' {
			return false
		}
		l.i++

		if depth < len(liftPath) {
			switch {
			case string(key) == liftPath[depth]:
				if descended || !l.object(depth+1) {
					return false
				}
				descended = true
			case bytes.EqualFold(key, []byte(liftPath[depth])):
				return false
			default:
				if !l.skipValue() {
					return false
				}
			}
		} else if !l.member(key) {
			return false
		}

		// , or }
		if l.i = skipSpace(l.b, l.i); l.i >= len(l.b) {
			return false
		}
		switch l.b[l.i] {
		case ',':
			l.i = skipSpace(l.b, l.i+1)
		case '}':
			l.i++
			return true
		default:
			return false
		}
	}
}

// member handles one member of the matrices object, the cursor on its value:
// a matrix is scanned and cut out of the envelope, anything else skipped.
func (l *lifter) member(key []byte) bool {
	for k, name := range matrixKeys {
		if !bytes.EqualFold(key, []byte(name)) {
			continue
		}
		if string(key) != name || l.seen[k] {
			return false
		}
		end, err := l.uploads.scan(&l.mats[k], l.b, l.i)
		if err != nil {
			return false
		}
		l.env = append(append(l.env, l.b[l.last:l.i]...), "null"...)
		l.seen[k], l.last, l.i = true, end, end
		return true
	}
	return l.skipValue()
}

// skipValue moves the cursor past one JSON value by matching brackets and
// stepping over strings. It does not validate what it skips — everything it
// skips stays in the envelope, where encoding/json does — it only has to
// agree with a real parser about where a valid value ends.
func (l *lifter) skipValue() bool {
	l.i = skipSpace(l.b, l.i)
	for depth := 0; l.i < len(l.b); l.i++ {
		switch l.b[l.i] {
		case '"':
			for l.i++; l.i < len(l.b) && l.b[l.i] != '"'; l.i++ {
				if l.b[l.i] == '\\' {
					l.i++
				}
			}
			if l.i >= len(l.b) {
				return false
			}
			if depth == 0 {
				l.i++
				return true
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return true // the enclosing object's: a scalar ended before it
			}
			if depth--; depth == 0 {
				l.i++
				return true
			}
		case ',':
			if depth == 0 {
				return true
			}
		}
	}
	return false
}
