package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// The fuzz targets of the request boundary. Their committed corpora
// (testdata/fuzz/) are the hand-written cases of matrix_test.go and the
// scripted requests of cmd/hbspd/testdata; `go test` replays them as
// ordinary tests, and CI fuzzes each target for 30 s.

// FuzzMatrixScan holds the scanner against the reference on any bytes
// standing where one matrix stands: decoded by encoding/json into
// [][]float64 and checked by the old loops on one side, Matrix.UnmarshalJSON
// on the other.
func FuzzMatrixScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var rows [][]float64
		refErr := json.Unmarshal(data, &rows)
		refValid := refErr == nil
		for i := 0; refValid && i < len(rows); i++ {
			refValid = len(rows[i]) == len(rows)
			for _, v := range rows[i] {
				refValid = refValid && v >= 0 && !math.IsInf(v, 0)
			}
		}

		var m Matrix
		err := json.Unmarshal(data, &m)
		switch {
		case err != nil:
			// Not a matrix at all: the reference must have failed to decode.
			if refErr == nil {
				t.Fatalf("scanner: %v; encoding/json decoded the bytes", err)
			}
		case m.defect != "":
			// The scanner stopped at a defect; further on the reference may
			// have met something that does not even decode.
			if refValid {
				t.Fatalf("scanner: defect %q; the reference accepts", m.defect)
			}
			if m.v != nil {
				t.Fatalf("a matrix with a defect kept its storage")
			}
		default:
			if !refValid || (rows == nil) != (m.v == nil) || len(rows) != m.n || len(m.v) != m.n*m.n {
				t.Fatalf("scanner accepts %d×%d (absent %t); reference: valid %t, %d rows, err %v", m.n, m.n, m.v == nil, refValid, len(rows), refErr)
			}
			zero := 0
			for i, row := range rows {
				for j, v := range row {
					if math.Float64bits(v) != math.Float64bits(m.v[i*m.n+j]) {
						t.Fatalf("[%d][%d]: scanner %v, reference %v", i, j, m.v[i*m.n+j], v)
					}
					if v == 0 && i != j && zero == 0 {
						zero = i*m.n + j + 1
					}
				}
			}
			if zero != m.zero {
				t.Fatalf("first zero off the diagonal: scanner %d, reference %d", m.zero, zero)
			}
		}

		// The handler scans a matrix where it lies, with the rest of the body
		// behind it and no validation ahead of it: never a panic, and on
		// valid JSON the same Matrix.
		var inPlace Matrix
		end, scanErr := inPlace.scan(append(bytes.Clone(data), `,"selfOverhead":1}}}`...), 0)
		if json.Valid(data) {
			if (scanErr == nil) != (err == nil && m.defect == "") || scanErr == nil && (end > len(data) || !reflect.DeepEqual(inPlace, m)) {
				t.Fatalf("scan in place: end %d of %d, err %v, %+v; UnmarshalJSON: err %v, %+v", end, len(data), scanErr, inPlace, err, m)
			}
		} else if scanErr == nil && end <= len(data) && skipSpace(data, end) == len(data) {
			t.Fatalf("scan in place accepted bytes that are not JSON")
		}
	})
}

// FuzzPredictRequest sends any body through the handler: the reply is 200 or
// a 4xx in the documented error shape — never a 500, never a panic — and the
// handler's decode of the body is the plain encoding/json decode of it, to
// the error text. Every point of a 200 moved a non-negative byte count (a
// wrapped one is an overflow). A 200 is asked for again with gzip, now from
// the cache, and must inflate to the plain reply byte for byte.
func FuzzPredictRequest(f *testing.F) {
	s := New(Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		var lifted, plain PredictRequest
		errLifted := decodeRequest(bytes.NewBuffer(bytes.Clone(body)), &lifted)
		errPlain := decodeStrict(bytes.NewReader(body), &plain)
		if (errLifted == nil) != (errPlain == nil) || errLifted != nil && errLifted.Error() != errPlain.Error() {
			t.Fatalf("handler decode: %v\nplain decode:   %v", errLifted, errPlain)
		}
		if errLifted == nil && !reflect.DeepEqual(lifted, plain) {
			t.Fatalf("handler decode %+v\nplain decode   %+v", lifted, plain)
		}

		// A body may ask for hours of evaluation; the client gives up after a
		// second, which the server answers with 499.
		send := func(gz bool) *httptest.ResponseRecorder {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)).WithContext(ctx)
			if gz {
				req.Header.Set("Accept-Encoding", "gzip")
			}
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			return w
		}
		w := send(false)
		switch w.Code {
		case 200:
			for _, line := range bytes.Split(bytes.TrimSpace(w.Body.Bytes()), []byte("\n")) {
				var p struct{ BytesMoved int64 }
				if json.Unmarshal(line, &p) == nil && p.BytesMoved < 0 {
					t.Fatalf("bytesMoved %d: %s", p.BytesMoved, line)
				}
			}
			zw := send(true)
			got := zw.Body.Bytes()
			if zw.Header().Get("Content-Encoding") == "gzip" {
				got = gunzip(t, got)
			}
			// A sweep whose point ran out of time ends in an error line; the
			// second try may get further.
			if outOfTime(w.Body.Bytes()) || outOfTime(got) {
				break
			}
			if zw.Code != 200 || !bytes.Equal(got, w.Body.Bytes()) {
				t.Fatalf("gzip request: status %d, inflated reply\n%s\ndiffers from the plain reply\n%s", zw.Code, got, w.Body.Bytes())
			}
		case 400, 408, 429, 499:
			var e apiError
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Err.Code == "" || e.Err.Status != w.Code || e.Err.Message == "" {
				t.Fatalf("status %d with a body outside the error shape (%v): %s", w.Code, err, w.Body.Bytes())
			}
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
	})
}

// outOfTime reports whether a reply ends in an error line whose outcome
// depends on the clock: an expired budget or a client that gave up.
func outOfTime(reply []byte) bool {
	lines := bytes.Split(bytes.TrimSpace(reply), []byte("\n"))
	var e apiError
	return json.Unmarshal(lines[len(lines)-1], &e) == nil && (e.Err.Code == "deadline" || e.Err.Code == "aborted")
}
