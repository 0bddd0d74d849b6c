package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// tweakLatency returns an uploadBody with latency[0][1] replaced by v: the
// same bytes but for that one number, of the same length.
func tweakLatency(t *testing.T, body []byte, v string) []byte {
	t.Helper()
	at := []byte(`"latency":[[0.000000e+00,`)
	k := bytes.Index(body, at)
	if k < 0 || len(v) != len("2.893750e-05") {
		t.Fatalf("no latency[0][1] to replace, or %q is not one number's length", v)
	}
	k += len(at)
	out := bytes.Clone(body)
	copy(out[k:], v)
	return out
}

// cachedUpload returns the cached machine a reply was evaluated on.
func cachedUpload(t *testing.T, s *Server, reply []byte, p int) *matrixMachine {
	t.Helper()
	var pt PredictPoint
	if err := json.Unmarshal(reply, &pt); err != nil {
		t.Fatal(err)
	}
	cached, ok := s.machines.Get(fmt.Sprintf("machine/%s/p%d", pt.ProfileFingerprint, p))
	if !ok {
		t.Fatalf("no machine cached for fingerprint %s", pt.ProfileFingerprint)
	}
	return cached.(*resolvedProfile).machine.(*matrixMachine)
}

// TestRepeatedMatricesShareStorage sends two uploads that differ in one
// latency entry: the second one's gap, beta and overhead come from the table
// — the first cached machine's very storage — and both replies are the ones
// a fresh server gives.
func TestRepeatedMatricesShareStorage(t *testing.T) {
	const p = 32
	first := uploadBody(p)
	second := tweakLatency(t, first, "9.000000e-05")
	s := New(Config{})
	replies := [][]byte{serve(t, s, first), serve(t, s, second)}
	for k, body := range [][]byte{first, second} {
		if fresh := serve(t, New(Config{}), body); !bytes.Equal(replies[k], fresh) {
			t.Errorf("upload %d: reply\n%s\ndiffers from a fresh server's\n%s", k, replies[k], fresh)
		}
	}
	if bytes.Equal(replies[0], replies[1]) {
		t.Fatalf("the two uploads answered alike; the tweak did not reach the latency")
	}
	m1, m2 := cachedUpload(t, s, replies[0], p), cachedUpload(t, s, replies[1], p)
	for k, pair := range [][2][]float64{{m1.gap, m2.gap}, {m1.beta, m2.beta}, {m1.ovh, m2.ovh}} {
		if &pair[0][0] != &pair[1][0] {
			t.Errorf("%s: the second machine holds a copy of its own", matrixKeys[k+1])
		}
	}
	if &m1.lat[0] == &m2.lat[0] {
		t.Errorf("the two machines share a latency matrix they differ in")
	}
	if u := s.Metrics().Uploads; u.Scanned != 5 || u.Reused != 3 || u.Live != 5 {
		t.Errorf("uploads %+v, want 5 scanned, 3 reused, 5 live", u)
	}
}

// TestUploadTableMatchesBytesOnly holds the table to identity of bytes: a
// matrix spelled with other whitespace is scanned, not matched (and comes to
// the same machine), and a matrix with a defect — a negative element, a null
// row — is refused with the same text however often it is sent, and never
// stored.
func TestUploadTableMatchesBytesOnly(t *testing.T) {
	const p = 16
	body := uploadBody(p)
	s := New(Config{})
	want := serve(t, s, body)

	gapAt := bytes.Index(body, []byte(`"gap":`)) + len(`"gap":`)
	gapEnd, err := new(Matrix).scan(body, gapAt)
	if err != nil {
		t.Fatal(err)
	}
	gap := string(body[gapAt:gapEnd])
	respell := func(gap string) []byte {
		return []byte(string(body[:gapAt]) + gap + string(body[gapEnd:]))
	}
	respaced := respell(strings.ReplaceAll(strings.Replace(gap, "],", "],\n ", 1), ",", ", "))
	before := s.Metrics().Uploads
	if got := serve(t, s, respaced); !bytes.Equal(got, want) {
		t.Errorf("the re-spaced upload answered\n%s\nwant\n%s", got, want)
	}
	if u := s.Metrics().Uploads; u.Scanned != before.Scanned+1 || u.Reused != before.Reused+3 {
		t.Errorf("re-spaced gap: uploads %+v after %+v, want one more scanned and three more reused", u, before)
	}

	// Both defects keep the first row, so the lookup walks the whole value
	// and compares it with the stored gap before it scans.
	row1 := strings.Index(gap, "]") + 2 // row 1's opening bracket
	defects := map[string][]byte{
		"negative": respell(gap[:row1] + strings.Replace(gap[row1:], "1.", "-1", 1)), // the same length too
		"null row": respell(gap[:row1] + "null" + gap[row1+strings.Index(gap[row1:], "]")+1:]),
	}
	for name, body := range defects {
		var first string
		for k := 0; k < 3; k++ {
			before := s.Metrics().Uploads
			rec := serveInProcess(s, string(body), false)
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != 400 || e.Err.Code != "invalid_machine" {
				t.Fatalf("%s: status %d, %s", name, rec.Code, rec.Body.Bytes())
			}
			if k == 0 {
				first = e.Err.Message
			} else if e.Err.Message != first {
				t.Errorf("%s: send %d refused with %q, the first with %q", name, k, e.Err.Message, first)
			}
			// The lift stops at the defect and leaves the body to the plain
			// decode: the latency before it was reused, the gap scanned.
			if u := s.Metrics().Uploads; u.Live > before.Live || u.Scanned != before.Scanned+1 || u.Reused != before.Reused+1 {
				t.Errorf("%s: send %d: uploads %+v after %+v, want the latency reused, the gap scanned and nothing stored", name, k, u, before)
			}
		}
	}
}

// TestSharedUploadTable sends identical and differing uploads from several
// goroutines at once: every reply is the one the same upload gets sent alone
// to a fresh server.
func TestSharedUploadTable(t *testing.T) {
	const p, workers, rounds = 12, 4, 3
	base := uploadBody(p)
	bodies := [][]byte{base, tweakLatency(t, base, "9.000000e-05"), tweakLatency(t, base, "8.000000e-05")}
	want := make([][]byte, len(bodies))
	for k, body := range bodies {
		want[k] = serve(t, New(Config{}), body)
	}
	s := New(Config{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				k := (w + r) % len(bodies)
				if rec := serveInProcess(s, string(bodies[k]), false); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want[k]) {
					t.Errorf("upload %d: status %d, reply\n%s\nwant\n%s", k, rec.Code, rec.Body.Bytes(), want[k])
				}
			}
		}()
	}
	wg.Wait()
	if u := s.Metrics().Uploads; u.Scanned+u.Reused != 4*workers*rounds || u.Reused == 0 {
		t.Errorf("uploads %+v: want %d lookups, some of them reused", u, 4*workers*rounds)
	}
}

// TestUploadTableConfirmsEveryCandidate makes every matrix of a length
// collide — one first-row key, one whole-value key — so that only the SHA-256
// of a confirmed entry and the scan against an unconfirmed one tell matrices
// apart: uploads that differ in the first row, in a later row or not at all,
// each sent twice, all answer as on a fresh server.
func TestUploadTableConfirmsEveryCandidate(t *testing.T) {
	defer func(f func([]byte) uint32) { checksum = f }(checksum)
	checksum = func([]byte) uint32 { return 0 }
	const p = 16
	base := uploadBody(p)
	lastRow := bytes.Clone(base) // the gap's last element, same length
	k := bytes.Index(lastRow, []byte(`]],"beta"`)) - len("1.200000e-05")
	copy(lastRow[k:], "7.000000e-05")
	bodies := [][]byte{base, tweakLatency(t, base, "9.000000e-05"), lastRow}
	want := make([][]byte, len(bodies))
	for k, body := range bodies {
		want[k] = serve(t, New(Config{}), body)
	}
	s := New(Config{})
	for round := range 3 {
		for k, body := range bodies {
			if got := serve(t, s, body); !bytes.Equal(got, want[k]) {
				t.Fatalf("round %d, upload %d: reply\n%s\nwant\n%s", round, k, got, want[k])
			}
		}
	}
	if u := s.Metrics().Uploads; u.Reused == 0 {
		t.Errorf("uploads %+v: nothing was reused", u)
	}
}

// TestUploadTableHoldsNothing evicts the uploaded machines: once nothing
// holds their matrices, the collector takes them and the table's entries go
// with them.
func TestUploadTableHoldsNothing(t *testing.T) {
	const p = 16
	s := New(Config{MachineEntries: 2})
	body := uploadBody(p)
	serve(t, s, body)
	serve(t, s, tweakLatency(t, body, "9.000000e-05"))
	if live := s.Metrics().Uploads.Live; live != 5 {
		t.Fatalf("%d live entries with both machines cached, want 5", live)
	}
	for _, procs := range []int{8, 16} { // two preset machines evict both uploads
		serve(t, s, []byte(fmt.Sprintf(`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":%d}`, procs)))
	}
	runtime.GC()
	runtime.GC()
	if live := s.Metrics().Uploads.Live; live != 0 {
		t.Errorf("%d live entries after the machines were evicted and collected, want 0", live)
	}
	// The cleanups that remove the entries run on a goroutine of their own
	// once the collector is done.
	for wait := 0; ; wait++ {
		s.uploads.mu.Lock()
		left := len(s.uploads.heads)
		s.uploads.mu.Unlock()
		if left == 0 {
			break
		}
		if wait == 100 {
			t.Fatalf("%d first-row keys still listed a second after their matrices were collected", left)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRepeatedUploadFootprint bounds what a repeated P=128 upload allocates:
// its matrices are found in the table (the first time again by a scan that
// stores nothing), the machine and the reply in their caches, so it takes at
// most a quarter of what the first upload took. Skipped under -race, whose
// shadow allocations make the counts meaningless.
//
// The uploads run on one P, as testing.AllocsPerRun runs its function: the
// body buffer comes back from a sync.Pool, whose private slot is seen only
// from the P that filled it, so a goroutine moved to another P between two
// uploads reads the 850 KB body into a new buffer and the count measures
// the scheduler.
func TestRepeatedUploadFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body := string(uploadBody(128))
	s := New(Config{})
	var sizes [3]uint64
	for k := range sizes {
		sizes[k] = totalAlloc(func() {
			if rec := serveInProcess(s, body, false); rec.Code != 200 {
				t.Fatalf("upload %d: status %d, %s", k, rec.Code, rec.Body.Bytes())
			}
		})
	}
	if u := s.Metrics().Uploads; u.Scanned != 4 || u.Reused != 8 {
		t.Errorf("uploads %+v, want 4 scanned and 8 reused", u)
	}
	for k, size := range sizes[1:] {
		if size > sizes[0]/4 {
			t.Errorf("upload %d allocated %d bytes, the first %d: want at most a quarter", k+2, size, sizes[0])
		}
	}
}
