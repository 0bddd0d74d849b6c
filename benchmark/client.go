package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// numClients is the load model: callers of hbspd are scripts that wait for
// each reply, so two closed-loop clients on two keep-alive connections (one
// per core of the reference machine) are the honest load.
const numClients = 2

// outcome is what one operation produced.
type outcome struct {
	latMs       float64 // send to last byte
	firstLineMs float64 // send to first decoded line
	hash        [sha256.Size]byte
	err         error
}

// replyLine is the part of a PredictPoint (or of a mid-stream error line)
// that validation looks at.
type replyLine struct {
	Workload string          `json:"workload"`
	Procs    int             `json:"procs"`
	MakeSpan float64         `json:"makespan"`
	Error    json.RawMessage `json:"error"`
}

// sender is one client: one connection, one scratch buffer.
type sender struct {
	client  *http.Client
	url     string
	scratch []byte
	body    bytes.Buffer
	gz      *gzip.Reader
}

func newSender(base string) *sender {
	return &sender{
		url: base + "/v1/predict",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			// The harness sets Accept-Encoding itself, per request.
			DisableCompression: true,
		}},
	}
}

func (s *sender) close() { s.client.CloseIdleConnections() }

// do sends one request and validates the reply: status 200, the expected
// X-Hbspd-Cache value, every line parses, echoes procs and workload and has
// a positive makespan, and a sweep carries exactly its point count. The
// latency clock stops at the last byte; validation runs after it.
func (s *sender) do(r *request) (out outcome) {
	body := r.Body
	if r.Patch != nil {
		s.scratch = r.bytesFor(s.scratch)
		body = s.scratch
	}
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if r.Gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	var src io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		if s.gz == nil {
			s.gz, err = gzip.NewReader(resp.Body)
		} else {
			err = s.gz.Reset(resp.Body)
		}
		if err != nil {
			out.err = fmt.Errorf("gzip reply: %w", err)
			return out
		}
		src = s.gz
	}
	s.body.Reset()
	br := bufio.NewReaderSize(src, 16<<10)
	first, err := br.ReadSlice('\n')
	for err == bufio.ErrBufferFull { // a line longer than the buffer
		s.body.Write(first)
		first, err = br.ReadSlice('\n')
	}
	out.firstLineMs = float64(time.Since(start).Nanoseconds()) / 1e6
	s.body.Write(first)
	if err == nil {
		_, err = s.body.ReadFrom(br)
	}
	out.latMs = float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil && err != io.EOF {
		out.err = fmt.Errorf("reading reply: %w", err)
		return out
	}
	body = s.body.Bytes()
	out.hash = sha256.Sum256(body)
	if resp.StatusCode != 200 {
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return out
	}
	if got := resp.Header.Get("X-Hbspd-Cache"); got != r.Expect {
		out.err = fmt.Errorf("X-Hbspd-Cache %q, want %q", got, r.Expect)
		return out
	}
	out.err = validateBody(r, body)
	return out
}

// validateBody checks the lines of a reply against the request.
func validateBody(r *request, body []byte) error {
	lines := 0
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 {
			continue
		}
		var pt replyLine
		if err := json.Unmarshal(line, &pt); err != nil {
			return fmt.Errorf("line %d does not parse: %w", lines, err)
		}
		if pt.Error != nil {
			return fmt.Errorf("error line: %s", pt.Error)
		}
		if pt.Workload != r.Kind || pt.Procs != r.Procs {
			return fmt.Errorf("line %d echoes %s/P=%d, want %s/P=%d", lines, pt.Workload, pt.Procs, r.Kind, r.Procs)
		}
		if !(pt.MakeSpan > 0) {
			return fmt.Errorf("line %d: makespan %v", lines, pt.MakeSpan)
		}
		lines++
	}
	if lines != r.Points {
		return fmt.Errorf("%d lines, want %d", lines, r.Points)
	}
	return nil
}

// clients are the numClients closed-loop clients of one measurement, each
// with its own keep-alive connection.
type clients []*sender

func newClients(base string) clients {
	var cs clients
	for c := 0; c < numClients; c++ {
		cs = append(cs, newSender(base))
	}
	return cs
}

func (cs clients) close() {
	for _, s := range cs {
		s.close()
	}
}

// run drives the operations through the clients, each taking the next unsent
// operation, and stores the outcomes in operation order.
func (cs clients) run(ops []request, outs []outcome) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, s := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				outs[i] = s.do(&ops[i])
			}
		}()
	}
	wg.Wait()
}

// runList drives a whole list through fresh clients.
func runList(base string, ops []request) []outcome {
	outs := make([]outcome, len(ops))
	cs := newClients(base)
	defer cs.close()
	cs.run(ops, outs)
	return outs
}

// foldDigest folds per-operation hashes, in operation order, into one
// digest. Virtual-time results are deterministic, so digests are compared
// exactly, never by tolerance.
func foldDigest(hashes [][sha256.Size]byte) string {
	h := sha256.New()
	for i := range hashes {
		h.Write(hashes[i][:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
