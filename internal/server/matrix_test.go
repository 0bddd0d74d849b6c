package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbsp"
	"hbsp/fault"
)

// ---- the reference: decode, then validate ---------------------------------
//
// What the server did before the scanner: encoding/json into [][]float64,
// then the loops of resolveMatrices over everything in memory, then one hash
// Write per number. Kept as the oracle the one-pass scanner is held against.

type refMatrixProfile struct {
	Latency      [][]float64 `json:"latency"`
	Gap          [][]float64 `json:"gap,omitempty"`
	Beta         [][]float64 `json:"beta"`
	Overhead     [][]float64 `json:"overhead,omitempty"`
	SelfOverhead float64     `json:"selfOverhead"`
	NIC          []int       `json:"nic,omitempty"`
}

// refRequest is PredictRequest with the reference matrices.
type refRequest struct {
	Profile struct {
		Preset   string            `json:"preset,omitempty"`
		Nodes    int               `json:"nodes,omitempty"`
		Custom   *CustomProfile    `json:"custom,omitempty"`
		Matrices *refMatrixProfile `json:"matrices,omitempty"`
	} `json:"profile"`
	Workload WorkloadSpec `json:"workload"`
	Procs    int          `json:"procs,omitempty"`
	Seed     *int64       `json:"seed,omitempty"`
	Faults   *fault.Plan  `json:"faults,omitempty"`
	Options  OptionsSpec  `json:"options"`
	Sweep    *SweepSpec   `json:"sweep,omitempty"`
}

// refResolve validates the reference matrices and returns them (absent
// optional ones as zeros) with the nic map.
func refResolve(spec *refMatrixProfile, procs int) (mats [4][][]float64, nic []int, err error) {
	invalid := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", hbsp.ErrInvalidMachine, fmt.Sprintf(format, args...))
	}
	p := len(spec.Latency)
	if p == 0 {
		return mats, nil, invalid("latency matrix is required")
	}
	if procs != p {
		return mats, nil, invalid("%d×%d matrices cannot serve procs=%d", p, p, procs)
	}
	square := func(name string, m [][]float64, required bool) ([][]float64, error) {
		if m == nil {
			if required {
				return nil, invalid("%s matrix is required", name)
			}
			rows := make([][]float64, p)
			for i := range rows {
				rows[i] = make([]float64, p)
			}
			return rows, nil
		}
		if len(m) != p {
			return nil, invalid("%s matrix has %d rows, want %d", name, len(m), p)
		}
		for i, row := range m {
			if len(row) != p {
				return nil, invalid("%s matrix row %d has %d entries, want %d", name, i, len(row), p)
			}
			for j, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return nil, invalid("%s[%d][%d] = %v must be finite and >= 0", name, i, j, v)
				}
			}
		}
		return m, nil
	}
	// latency, beta, gap, overhead: the order the server checked them in;
	// mats is in fingerprint order (latency, gap, beta, overhead).
	for _, c := range []struct {
		name     string
		m        [][]float64
		required bool
		slot     int
	}{{"latency", spec.Latency, true, 0}, {"beta", spec.Beta, true, 2}, {"gap", spec.Gap, false, 1}, {"overhead", spec.Overhead, false, 3}} {
		if mats[c.slot], err = square(c.name, c.m, c.required); err != nil {
			return mats, nil, err
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j && mats[0][i][j] <= 0 {
				return mats, nil, invalid("latency[%d][%d] must be positive off the diagonal", i, j)
			}
		}
	}
	if !(spec.SelfOverhead > 0) || math.IsInf(spec.SelfOverhead, 0) {
		return mats, nil, invalid("selfOverhead must be positive and finite")
	}
	nic = spec.NIC
	if nic == nil {
		nic = make([]int, p)
		for i := range nic {
			nic[i] = i
		}
	}
	if len(nic) != p {
		return mats, nil, invalid("nic map has %d entries, want %d", len(nic), p)
	}
	return mats, nic, nil
}

func refFingerprint(selfOverhead float64, mats [4][][]float64, nic []int) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("hbsp/server.MatrixProfile/v1"))
	u64(uint64(len(mats[0])))
	for _, m := range mats {
		for _, row := range m {
			for _, v := range row {
				u64(math.Float64bits(v))
			}
		}
	}
	u64(math.Float64bits(selfOverhead))
	for _, n := range nic {
		u64(uint64(int64(n)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outcome is what a body comes to: an error code and message, or a machine.
type outcome struct {
	code, message string
	fingerprint   string
	elems         [4][]uint64 // Float64bits, row-major, fingerprint order
}

func errOutcome(err error) outcome {
	code, _ := classify(err)
	return outcome{code: code, message: err.Error()}
}

// refOutcome runs a body through the reference.
func refOutcome(body []byte) outcome {
	var req refRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return errOutcome(badRequestf("decoding body: %v", err))
	}
	if req.Profile.Matrices == nil {
		return outcome{code: "no_upload"}
	}
	mats, nic, err := refResolve(req.Profile.Matrices, req.Procs)
	if err != nil {
		return errOutcome(err)
	}
	out := outcome{fingerprint: refFingerprint(req.Profile.Matrices.SelfOverhead, mats, nic)}
	for k, m := range mats {
		for _, row := range m {
			for _, v := range row {
				out.elems[k] = append(out.elems[k], math.Float64bits(v))
			}
		}
	}
	return out
}

// scanOutcome runs a body through the server's own decode and resolve. lift
// selects the road: the handler's (decodeRequest, which lifts when it can) or
// the plain one every other caller of json takes.
func scanOutcome(body []byte, lift bool) outcome {
	var req PredictRequest
	var err error
	if lift {
		err = decodeRequest(bytes.NewBuffer(bytes.Clone(body)), &req)
	} else {
		err = decodeStrict(bytes.NewReader(body), &req)
	}
	if err != nil {
		return errOutcome(badRequestf("decoding body: %v", err))
	}
	if req.Profile.Matrices == nil {
		return outcome{code: "no_upload"}
	}
	rp, err := New(Config{}).resolveMatrices(req.Profile.Matrices, req.Procs)
	if err != nil {
		return errOutcome(err)
	}
	m := rp.machine.(*matrixMachine)
	out := outcome{fingerprint: rp.fingerprint}
	for k, flat := range [][]float64{m.lat, m.gap, m.beta, m.ovh} {
		for _, v := range flat {
			out.elems[k] = append(out.elems[k], math.Float64bits(v))
		}
	}
	return out
}

// agree fails the test unless the scanner, on both roads, comes to what the
// reference comes to: the same accept or reject, the same error code, and on
// accept the same element bits and fingerprint. sameMessage also holds the
// error texts equal.
func agree(t *testing.T, body []byte, sameMessage bool) outcome {
	t.Helper()
	want := refOutcome(body)
	for _, lift := range []bool{true, false} {
		got := scanOutcome(body, lift)
		if got.code != want.code || got.fingerprint != want.fingerprint || fmt.Sprint(got.elems) != fmt.Sprint(want.elems) {
			t.Fatalf("lift=%t: scanner and reference disagree\nbody: %s\nscanner:   %q %q %s\nreference: %q %q %s",
				lift, clip(body), got.code, got.message, got.fingerprint, want.code, want.message, want.fingerprint)
		}
		if sameMessage && got.message != want.message {
			t.Fatalf("lift=%t: message %q, reference %q\nbody: %s", lift, got.message, want.message, clip(body))
		}
	}
	return want
}

func clip(b []byte) []byte {
	if len(b) > 600 {
		return append(bytes.Clone(b[:600]), "…"...)
	}
	return b
}

// upload wraps a matrices object into a request.
func upload(matrices string, procs int) []byte {
	return []byte(fmt.Sprintf(`{"profile":{"matrices":%s},"workload":{"kind":"barrier"},"procs":%d}`, matrices, procs))
}

const (
	lat2  = `[[0,1e-6],[2e-6,0]]`
	beta2 = `[[0,1e-9],[1e-9,0]]`
)

// matrixCases are the hand-written bodies: name, body, whether the scanner
// must word the error exactly as the reference, and the outcome expected of
// both ("" accepts).
var matrixCases = []struct {
	name        string
	body        []byte
	sameMessage bool
	code        string
}{
	{"valid", upload(`{"latency":`+lat2+`,"gap":[[0,1e-7],[1e-7,0]],"beta":`+beta2+`,"overhead":[[0,0],[0,0]],"selfOverhead":1e-7,"nic":[0,0]}`, 2), true, ""},
	{"optional absent", upload(`{"latency":`+lat2+`,"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, ""},
	{"optional null", upload(`{"latency":`+lat2+`,"gap":null,"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, ""},
	{"one rank", upload(`{"latency":[[0]],"beta":[[0]],"selfOverhead":1e-7}`, 1), true, ""},
	{"negative element", upload(`{"latency":[[0,-1e-06],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"negative in gap", upload(`{"latency":`+lat2+`,"gap":[[0,1],[-3,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"ragged row", upload(`{"latency":[[0,1e-6],[1e-6]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"long row", upload(`{"latency":[[0,1e-6],[1e-6,0,5]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"wide matrix", upload(`{"latency":[[0,1,2],[1,0,2]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"tall matrix", upload(`{"latency":[[0,1],[1,0],[1,1]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 3), true, "invalid_machine"},
	{"one long row", upload(`{"latency":[[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 1), true, "invalid_machine"},
	{"beta of another size", upload(`{"latency":`+lat2+`,"beta":[[0,1,1],[1,0,1],[1,1,0]],"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"empty latency", upload(`{"latency":[],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"empty beta", upload(`{"latency":`+lat2+`,"beta":[],"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"empty rows", upload(`{"latency":[[]],"beta":[[]],"selfOverhead":1e-7}`, 1), true, "invalid_machine"},
	{"missing beta", upload(`{"latency":`+lat2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"missing latency", upload(`{"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"procs mismatch", upload(`{"latency":`+lat2+`,"beta":`+beta2+`,"selfOverhead":1e-7}`, 3), true, "invalid_machine"},
	{"zero latency off the diagonal", upload(`{"latency":[[0,1e-6],[0,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"minus zero latency off the diagonal", upload(`{"latency":[[0,-0],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"minus zero elsewhere", upload(`{"latency":[[-0,1e-6],[1e-6,-0.0]],"beta":[[0,-0],[-0e5,0]],"selfOverhead":1e-7}`, 2), true, ""},
	{"null element is zero", upload(`{"latency":[[null,1e-6],[1e-6,0]],"beta":[[0,null],[1e-9,0]],"selfOverhead":1e-7}`, 2), true, ""},
	{"null latency element off the diagonal", upload(`{"latency":[[0,null],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	// The scanner takes the first row's length, here 0, as the dimension.
	{"null row", upload(`{"latency":[null,[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), false, "invalid_machine"},
	{"zero selfOverhead", upload(`{"latency":`+lat2+`,"beta":`+beta2+`,"selfOverhead":0}`, 2), true, "invalid_machine"},
	{"short nic", upload(`{"latency":`+lat2+`,"beta":`+beta2+`,"selfOverhead":1e-7,"nic":[0]}`, 2), true, "invalid_machine"},
	{"latency defect before beta's", upload(`{"latency":[[0,1],[-1,0]],"beta":[[0],[1,0]],"selfOverhead":1e-7}`, 2), true, "invalid_machine"},
	{"big and small spellings", upload(`{"latency":[[0,1234567890123456789012345e-30],[4.9e-324,0]],`+
		`"beta":[[0,2.2250738585072011e-308],[1e-23,0]],"gap":[[0,1e23],[1.7976931348623157e308,0]],`+
		`"overhead":[[0.000000000000000000000000000001,123456789012345678],[9007199254740993,0]],"selfOverhead":1e-7}`, 2), true, ""},
	{"exponent spellings", upload(`{"latency":[[0,1E-6],[1e+0,0]],"beta":[[0e0,1.5e-09],[25E-0010,0.0]],"selfOverhead":1e-7}`, 2), true, ""},
	{"whitespace everywhere", []byte(" \n{ \"profile\" :\t{ \"matrices\" : { \"latency\" : [ [ 0 , 1e-6 ] ,\r\n [ 2e-6 , 0 ] ] , \"beta\" :\n[\n[\n0\n,\n1e-9\n]\n,\n[\n1e-9\n,\n0\n]\n]\n, \"selfOverhead\" : 1e-7 } } , \"workload\" : { \"kind\" : \"barrier\" } , \"procs\" : 2 } \n"), true, ""},
	{"re-cased key beside the matrices", upload(`{"latency":`+lat2+`,"beta":`+beta2+`,"ſelfoverHEAD":1e-7,"NIC":[1,1]}`, 2), true, ""},
	{"trailing bytes after the value", append(upload(`{"latency":`+lat2+`,"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), " trailing } garbage"...), true, ""},
	{"a second value after the first", append(upload(`{"latency":`+lat2+`,"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), `{"procs":9}`...), true, ""},

	{"overflowing number", upload(`{"latency":[[0,1e999],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), false, "invalid_request"},
	{"NaN literal", upload(`{"latency":[[0,NaN],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"Infinity literal", upload(`{"latency":[[0,Infinity],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"minus Infinity literal", upload(`{"latency":[[0,-Infinity],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"string for a number", upload(`{"latency":[[0,"1e-6"],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), false, "invalid_request"},
	{"bool for a number", upload(`{"latency":[[0,true],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), false, "invalid_request"},
	{"array for a number", upload(`{"latency":[[0,[1]],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), false, "invalid_request"},
	{"number for a row", upload(`{"latency":[5,[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), false, "invalid_request"},
	{"number for a matrix", upload(`{"latency":5,"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), false, "invalid_request"},
	{"object for a matrix", upload(`{"latency":{"rows":2},"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), false, "invalid_request"},
	{"leading zero", upload(`{"latency":[[0,01e-6],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"plus sign", upload(`{"latency":[[0,+1],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"bare point", upload(`{"latency":[[0,.5],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"point without digits", upload(`{"latency":[[0,1.],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"exponent without digits", upload(`{"latency":[[0,1e],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"number run into a letter", upload(`{"latency":[[0,1x],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"trailing comma in a row", upload(`{"latency":[[0,1,],[1e-6,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), true, "invalid_request"},
	{"unclosed matrix", []byte(`{"profile":{"matrices":{"latency":[[0,1],[1,0]`), true, "invalid_request"},
	{"extra key inside matrices", upload(`{"latency":`+lat2+`,"beta":`+beta2+`,"selfOverhead":1e-7,"bandwidth":[[1]]}`, 2), true, "invalid_request"},
	{"defect and a syntax error after it", append(upload(`{"latency":[[0,-1],[1,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2)[:100], "!"...), true, "invalid_request"},
}

// offRoadCases spell the keys in ways the handler declines to lift; they
// reach the scanner through UnmarshalJSON and must agree all the same.
var offRoadCases = []struct {
	name string
	body []byte
	code string
}{
	{"duplicated latency, last wins", upload(`{"latency":[[0,9],[9,0]],"latency":`+lat2+`,"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), ""},
	{"duplicated latency, last is bad", upload(`{"latency":`+lat2+`,"latency":[[0,-1],[1,0]],"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), "invalid_machine"},
	{"duplicated latency, last is null", upload(`{"latency":`+lat2+`,"latency":null,"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), "invalid_machine"},
	{"duplicated matrices", []byte(`{"profile":{"matrices":{"latency":[[0,9],[9,0]],"selfOverhead":1},"matrices":{"latency":` + lat2 + `,"beta":` + beta2 + `}},"workload":{"kind":"barrier"},"procs":2}`), ""},
	{"duplicated profile", []byte(`{"profile":{"matrices":{"latency":` + lat2 + `,"selfOverhead":1e-7}},"workload":{"kind":"barrier"},"procs":2,"profile":{"matrices":{"beta":` + beta2 + `}}}`), ""},
	{"escaped matrix key", upload(`{"l\u0061tency":`+lat2+`,"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), ""},
	{"escaped matrices key", []byte(`{"profile":{"m\u0061trices":{"latency":` + lat2 + `,"beta":` + beta2 + `,"selfOverhead":1e-7}},"workload":{"kind":"barrier"},"procs":2}`), ""},
	{"escaped profile key", []byte(`{"\u0070rofile":{"matrices":{"latency":` + lat2 + `,"beta":` + beta2 + `,"selfOverhead":1e-7}},"workload":{"kind":"barrier"},"procs":2}`), ""},
	{"re-cased matrix key", upload(`{"Latency":`+lat2+`,"BETA":`+beta2+`,"selfOverhead":1e-7}`, 2), ""},
	{"re-cased matrix key beside the exact one", upload(`{"latency":[[0,9],[9,0]],"LATENCY":`+lat2+`,"beta":`+beta2+`,"selfOverhead":1e-7}`, 2), ""},
	{"re-cased matrices key", []byte(`{"profile":{"Matrices":{"latency":` + lat2 + `,"beta":` + beta2 + `,"selfOverhead":1e-7}},"workload":{"kind":"barrier"},"procs":2}`), ""},
	{"re-cased profile key", []byte(`{"PROFILE":{"matrices":{"latency":` + lat2 + `,"beta":` + beta2 + `,"selfOverhead":1e-7}},"workload":{"kind":"barrier"},"procs":2}`), ""},
	{"long s in the matrices key", []byte(`{"profile":{"matriceſ":{"latency":` + lat2 + `,"beta":` + beta2 + `,"selfOverhead":1e-7}},"workload":{"kind":"barrier"},"procs":2}`), ""},
}

// TestMatrixScanMatchesReference holds the one-pass scanner against
// decode-then-validate on the hand-written bodies.
func TestMatrixScanMatchesReference(t *testing.T) {
	for _, tc := range matrixCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := agree(t, tc.body, tc.sameMessage); got.code != tc.code {
				t.Fatalf("code %q (%s), want %q", got.code, got.message, tc.code)
			}
			// Spelled the plain way, a body that decodes is lifted; one that
			// does not decode is declined and left to the plain road.
			var req PredictRequest
			if lifted := liftMatrices(tc.body, &req); lifted != (tc.code == "") && tc.code != "invalid_machine" {
				t.Fatalf("liftMatrices = %t on a body that comes to %q", lifted, tc.code)
			}
		})
	}
	for _, tc := range offRoadCases {
		t.Run(tc.name, func(t *testing.T) {
			var req PredictRequest
			if liftMatrices(tc.body, &req) {
				t.Fatalf("the handler lifted a body it must leave to UnmarshalJSON")
			}
			if got := agree(t, tc.body, true); got.code != tc.code {
				t.Fatalf("code %q (%s), want %q", got.code, got.message, tc.code)
			}
		})
	}
}

// spellings are the number formats the generated bodies and the conversion
// property test draw from: the first four are what clients write and what
// the inlined conversion handles itself, the last three run to dozens or
// hundreds of digits and go to strconv either way.
var spellings = []func(v float64) string{
	func(v float64) string { return fmt.Sprintf("%.6e", v) },
	func(v float64) string { return fmt.Sprintf("%.11e", v) },
	func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) },
	func(v float64) string { return strconv.FormatUint(math.Float64bits(v)>>12, 10) }, // some integer
	func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) },
	func(v float64) string { return strconv.FormatFloat(v, 'E', 17, 64) },
	func(v float64) string { return fmt.Sprintf("%.25e", v) },
}

// randomValue draws a non-negative float64 from the ranges uploads use and
// from the corners: link parameters, integers, huge, tiny, subnormal, any bits.
func randomValue(r *rand.Rand) float64 {
	switch k := r.Intn(64); {
	case k == 0:
		return 0
	case k == 1: // subnormal — rare, strconv converts these slowly
		return math.Float64frombits(uint64(r.Int63n(1 << 52)))
	case k < 10:
		return float64(r.Intn(1 << 20))
	case k < 18:
		return r.Float64() * 1e300
	case k < 26:
		return r.Float64() * 1e-300
	case k < 34:
		if v := math.Float64frombits(r.Uint64() &^ (1 << 63)); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
		return 1
	}
	return (1 + r.Float64()) * math.Pow(10, float64(-3-r.Intn(9)))
}

// TestGeneratedUploadsMatchReference holds the scanner against the reference
// on generated bodies: random dimensions, spellings and whitespace, a third
// of them with one defect planted somewhere.
func TestGeneratedUploadsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	defects := []string{"-1e-6", "-0.5", `"x"`, "null", "1e999", "01", "true", "[1]", "1e", "NaN", ""}
	count := map[string]int{}
	n := 3000
	if testing.Short() || raceEnabled { // one goroutine: nothing for the detector to see
		n = 500
	}
	for it := 0; it < n; it++ {
		p := 1 + r.Intn(6)
		sp := func() string {
			if r.Intn(5) == 0 {
				return strings.Repeat(" ", r.Intn(3)) + []string{"", "\n", "\t", "\r\n"}[r.Intn(4)]
			}
			return ""
		}
		// At most one defect a body: a bad element, or one matrix with a row
		// too many or too few, or one row with an entry too many or too few.
		plant, reshape := -1, -1
		switch r.Intn(9) {
		case 0, 1:
			plant = r.Intn(4 * p * p)
		case 2:
			reshape = r.Intn(4 * (p + 1))
		}
		elem, row := 0, 0
		matrix := func(optional bool) string {
			if optional && r.Intn(4) == 0 {
				elem, row = elem+p*p, row+p+1
				return ""
			}
			var b strings.Builder
			b.WriteString("[" + sp())
			rows := p
			if row == reshape {
				rows += 2*r.Intn(2) - 1
			}
			row++
			for i := 0; i < rows; i++ {
				if i > 0 {
					b.WriteString("," + sp())
				}
				b.WriteString("[" + sp())
				cols := p
				if row == reshape {
					cols += 2*r.Intn(2) - 1
				}
				row++
				for j := 0; j < cols; j++ {
					if j > 0 {
						b.WriteString(sp() + "," + sp())
					}
					v := randomValue(r)
					if i != j && v == 0 {
						v = 1e-6
					}
					s := spellings[r.Intn(len(spellings))](v)
					if i != j && s == "0" { // the integer spelling of a small value
						s = "1"
					}
					if elem == plant {
						s = defects[r.Intn(len(defects))]
					}
					elem++
					b.WriteString(s)
				}
				b.WriteString(sp() + "]")
			}
			b.WriteString(sp() + "]")
			return b.String()
		}
		var parts []string
		for _, key := range []string{"latency", "gap", "beta", "overhead"} {
			if m := matrix(key == "gap" || key == "overhead"); m != "" {
				parts = append(parts, fmt.Sprintf("%q:%s%s", key, sp(), m))
			}
		}
		parts = append(parts, `"selfOverhead":1e-7`)
		r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		body := upload("{"+strings.Join(parts, ","+sp())+"}", p)
		count[agree(t, body, false).code]++
	}
	t.Logf("outcomes over %d bodies: %v", n, count)
	if count[""] < n/3 || count["invalid_machine"] < n/50 || count["invalid_request"] < n/50 {
		t.Fatalf("the generator no longer covers every outcome: %v", count)
	}
}

// TestScanNumberMatchesStrconv pins the inlined number conversion to
// strconv.ParseFloat bit for bit, on a million generated spellings and on
// the corners by hand; and its grammar to JSON's.
func TestScanNumberMatchesStrconv(t *testing.T) {
	check := func(s string) {
		t.Helper()
		got, end, ok := scanNumber([]byte(s), 0)
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			if !errors.Is(err, strconv.ErrRange) {
				t.Fatalf("test bug: %q is not a number: %v", s, err)
			}
			if ok {
				t.Fatalf("scanNumber(%q) = %v, ParseFloat reports %v", s, got, err)
			}
			return
		}
		if !ok || end != len(s) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scanNumber(%q) = %v (%#x), end %d, ok %t; ParseFloat %v (%#x)",
				s, got, math.Float64bits(got), end, ok, want, math.Float64bits(want))
		}
	}
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0e-5", "0e999", "0.000e-999", "1", "-1", "10", "1e0", "1E+2", "1e-2", "1e22", "1e23", "1e-22", "1e-23",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993e-1", "18446744073709551615", "18446744073709551616",
		"1234567890123456789", "12345678901234567890", "1234567890123456789012345", "1234567890123456789012345e-30",
		"0.1234567890123456789012345", "0.000000000000000000000000000001", "123456789012345678901234567890.5",
		"4.9e-324", "2.4e-324", "2.5e-324", "5e-324", "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
		"1.7976931348623159e308", "1e308", "1e309", "1e999", "-1e999", "1e-999", "1e99999999999", "1e-99999999999",
		"8.41e21", "8.41e22", "8.41e23", "9.5e-5", "2.800000e-05", "2.80000000000e-05", "1.1754943508222875e-38",
		"100000000000000016777215", "100000000000000016777216", "0.30000000000000004", "1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124", "1.00000000000000011102230246251565404236316680908203126",
	} {
		check(s)
	}
	for _, s := range []string{"", "-", "+1", ".5", "-.5", "1.", "1.e5", "1e", "1e+", "e5", "--1", "NaN", "Infinity", "-Infinity", "nan", "x"} {
		if _, end, ok := scanNumber([]byte(s), 0); ok {
			t.Errorf("scanNumber(%q) accepted %q", s, s[:end])
		}
	}
	// A number ends where JSON's grammar ends it; what follows is the caller's.
	for s, want := range map[string]int{"01": 1, "1x": 1, "0x10": 1, "1_000": 1, "1.5.2": 3, "1e5e5": 3, "00": 1, "-01": 2, "1,2": 1, "1]": 1, "1 ": 1} {
		if _, end, ok := scanNumber([]byte(s), 0); !ok || end != want {
			t.Errorf("scanNumber(%q) ends at %d (ok %t), want %d", s, end, ok, want)
		}
	}

	r := rand.New(rand.NewSource(7))
	n := 1 << 20
	if testing.Short() || raceEnabled {
		n = 1 << 16
	}
	for it := 0; it < n; it++ {
		v := randomValue(r)
		if it%2 == 1 {
			v = -v
		}
		k := it % 4
		if it%16 == 15 { // strconv's big-decimal path is slow, and it is both sides
			k = 4 + it/16%3
		}
		check(spellings[k](v))
	}
}

// TestMatrixJSONRoundTrip: a Matrix marshals to its rows and back to itself;
// an absent one is omitted from its profile.
func TestMatrixJSONRoundTrip(t *testing.T) {
	spec := asymmetricUpload(t, 5)
	spec.Gap = Matrix{}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("gap")) {
		t.Errorf("an absent matrix was marshalled: %s", data)
	}
	var back MatrixProfile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back) != fmt.Sprint(*spec) {
		t.Errorf("round trip changed the profile\n got %v\nwant %v", back, *spec)
	}
	var m Matrix
	if err := m.UnmarshalJSON([]byte(" [[1]] x")); err == nil {
		t.Errorf("UnmarshalJSON accepted bytes after the value")
	}
}

// uploadBody is a p-rank upload spelled the way benchmark/ spells its matrix
// class: four p×p matrices of %.6e numbers with a per-pair spread, ≈850 KB at
// p=128.
func uploadBody(p int) []byte {
	mat := func(off float64) string {
		var b strings.Builder
		b.WriteByte('[')
		for i := 0; i < p; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('[')
			for j := 0; j < p; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				v := 0.0
				if i != j {
					v = off * (1 + float64((i*31+j*17)%64)/512)
				}
				fmt.Fprintf(&b, "%.6e", v)
			}
			b.WriteByte(']')
		}
		b.WriteByte(']')
		return b.String()
	}
	return []byte(fmt.Sprintf(`{"profile":{"matrices":{"latency":%s,"gap":%s,"beta":%s,"overhead":%s,"selfOverhead":1.2e-07}},`+
		`"workload":{"kind":"allreduce","bytes":1024},"procs":%d}`, mat(28e-6), mat(12e-6), mat(1/110.0e6), mat(1.2e-6), p))
}

// TestDecodeUploadAllocs pins what decoding an upload allocates, at two
// dimensions: lifting the four matrices out of the body — the walk, the four
// scans, the envelope — is a handful of allocations (the four flat matrices,
// the envelope, the lifter; decoding into [][]float64 took 5,783 at P=128),
// and the whole handler-side decode, encoding/json's pass over the envelope
// included, is the same small count whatever the dimension.
func TestDecodeUploadAllocs(t *testing.T) {
	var lift, whole []float64
	for _, p := range []int{16, 128} {
		body := uploadBody(p)
		if got := agree(t, body, true); got.code != "" {
			t.Fatalf("P=%d body rejected: %s", p, got.message)
		}
		lift = append(lift, testing.AllocsPerRun(5, func() {
			l := lifter{b: body, env: make([]byte, 0, 1024)}
			if !l.object(0) || l.mats[3].n != p {
				t.Fatalf("P=%d body not lifted", p)
			}
		}))
		buf := new(bytes.Buffer)
		whole = append(whole, testing.AllocsPerRun(5, func() {
			var req PredictRequest
			buf.Reset()
			buf.Write(body)
			if err := decodeRequest(buf, &req); err != nil || req.Profile.Matrices.Latency.n != p {
				t.Fatalf("decode: %v", err)
			}
		}))
	}
	if lift[0] != lift[1] || lift[1] > 16 {
		t.Errorf("lifting the four matrices allocates %v times at P=16, 128; want one count, at most 16", lift)
	}
	if whole[0] != whole[1] || whole[1] > 32 {
		t.Errorf("decoding an upload allocates %v times at P=16, 128; want one count, at most 32", whole)
	}
}

// BenchmarkDecodeMatrixRequest times the handler-side decode of a P=128
// upload — the lift, the four matrix scans and the envelope — and, in the
// same run, encoding/json decoding the same bytes into [][]float64 (the
// reference above): x_vs_encoding_json is how many times faster the scan is.
func BenchmarkDecodeMatrixRequest(b *testing.B) {
	body := uploadBody(128)
	// The reference is timed on both sides of the measured loop, so a machine
	// that speeds up or slows down during the run tilts the ratio less.
	const refRuns = 2
	var refTime time.Duration
	timeRef := func() {
		start := time.Now()
		for k := 0; k < refRuns; k++ {
			var req refRequest
			if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
				b.Fatal(err)
			}
		}
		refTime += time.Since(start)
	}

	timeRef()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var req PredictRequest
		if err := decodeRequest(bytes.NewBuffer(body), &req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	timeRef()
	perRef := float64(refTime.Nanoseconds()) / (2 * refRuns)
	b.ReportMetric(perRef/(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "x_vs_encoding_json")
}
