package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"infoflow/internal/rng"
	"infoflow/internal/twitter"
)

// tinyCorpus writes a small generated corpus to a temp file and returns
// its path.
func tinyCorpus(t *testing.T) string {
	t.Helper()
	cfg := twitter.DefaultConfig()
	cfg.NumUsers = 40
	cfg.NumTweets = 60
	cfg.NumHashtags = 5
	cfg.NumURLs = 5
	d, err := twitter.Generate(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := d.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// syncBuffer lets the test read server output while run() writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenLine = regexp.MustCompile(`listening|serving model .* on http://([0-9.:\[\]]+)`)

// TestSmokeServeBurstAndDrain is the end-to-end lifecycle check: start
// the server on an ephemeral port, serve a burst of concurrent queries,
// then SIGTERM and verify a clean drain with a summary line.
func TestSmokeServeBurstAndDrain(t *testing.T) {
	corpus := tinyCorpus(t)
	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-data", corpus, "-addr", "127.0.0.1:0",
			"-samples", "50", "-window", "2ms", "-workers", "2",
		}, &stdout, &stderr)
	}()

	// Wait for the listening line and extract the address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; output:\n%s\n%s", stdout.String(), stderr.String())
		}
		if m := listenLine.FindStringSubmatch(stdout.String()); m != nil && m[1] != "" {
			base = "http://" + m[1]
		}
		select {
		case err := <-done:
			t.Fatalf("server exited early: %v\n%s", err, stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
	}

	var health map[string]string
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	// Query burst: concurrent flow queries (varying seeds), all of which
	// must come back 200 with a parseable probability.
	const burst = 24
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/flow?source=0&sink=1&seed=%d", base, i%4)
			resp, err := http.Get(url)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var body struct {
				Prob *float64 `json:"prob"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK || body.Prob == nil {
				errs[i] = fmt.Errorf("status %d, prob %v", resp.StatusCode, body.Prob)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("burst request %d: %v", i, err)
		}
	}
	// One query per other endpoint, for the drain summary to count.
	for _, path := range []string{"/community?source=0&top=5", "/impact?sources=0", "/maximize?k=1&samples=2&roots=64"} {
		resp, err = http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}

	// SIGTERM → clean drain: run() must return nil and report a summary.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM\n%s", err, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("server did not drain within 20s; output:\n%s", stdout.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "drained:") {
		t.Errorf("drain lines missing from output:\n%s", out)
	}
	if want := fmt.Sprintf("%d flow + 1 community + 1 impact + 1 maximize requests", burst); !strings.Contains(out, want) {
		t.Errorf("drain summary does not count every endpoint (want %q):\n%s", want, out)
	}
}

func TestSmokeMissingArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Fatal("missing -data accepted")
	}
	if err := run([]string{"-data", "nope.json"}, &stdout, &stderr); err == nil {
		t.Fatal("nonexistent corpus accepted")
	}
}

// TestHTTPServerTimeouts pins the connection timeouts on the server
// flowserve builds, so a slow or idle client cannot hold a connection
// for good.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.Handler == nil {
		t.Error("server has no handler")
	}
}
