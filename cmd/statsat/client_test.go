package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"statsat/internal/server"
)

// shortDelays shrinks the backoff schedule so retry tests run in
// milliseconds, restoring the real schedule afterwards.
func shortDelays(t *testing.T) {
	t.Helper()
	saved := retryDelays
	retryDelays = []time.Duration{time.Millisecond, 2 * time.Millisecond}
	t.Cleanup(func() { retryDelays = saved })
}

func TestWithBackoffRetriesTransientOnly(t *testing.T) {
	shortDelays(t)
	ctx := context.Background()

	// Transient failures burn through the whole schedule...
	calls := 0
	err := withBackoff(ctx, func() error {
		calls++
		return transientError{errors.New("connection refused")}
	})
	if err == nil || calls != len(retryDelays)+1 {
		t.Fatalf("exhausted backoff: err=%v calls=%d, want %d", err, calls, len(retryDelays)+1)
	}

	// ...success mid-schedule stops early...
	calls = 0
	err = withBackoff(ctx, func() error {
		calls++
		if calls < 2 {
			return transientError{errors.New("connection refused")}
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("retry-then-success: err=%v calls=%d", err, calls)
	}

	// ...and a definitive server answer is never retried.
	calls = 0
	final := errors.New("server: 400 Bad Request: unknown attack")
	err = withBackoff(ctx, func() error {
		calls++
		return final
	})
	if err != final || calls != 1 {
		t.Fatalf("non-transient: err=%v calls=%d", err, calls)
	}
}

func TestWithBackoffStopsOnContextCancel(t *testing.T) {
	saved := retryDelays
	retryDelays = []time.Duration{time.Hour}
	t.Cleanup(func() { retryDelays = saved })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	start := time.Now()
	err := withBackoff(ctx, func() error {
		calls++
		return transientError{errors.New("connection refused")}
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancelled backoff slept through its schedule")
	}
}

// flakyHandler kills the first n connections at the TCP level (a
// hijack-and-close looks to the client exactly like a daemon that is
// not accepting yet), then delegates.
func flakyHandler(n int32, next http.Handler) (http.Handler, *int32) {
	var calls int32
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= n {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		next.ServeHTTP(w, r)
	}), &calls
}

func TestSubmitJobRetriesConnectFailures(t *testing.T) {
	shortDelays(t)
	accept := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "j000042"})
	})
	h, calls := flakyHandler(2, accept)
	hts := httptest.NewServer(h)
	defer hts.Close()

	id, err := submitJob(context.Background(), hts.URL, &server.Spec{Attack: "sat"})
	if err != nil {
		t.Fatalf("submit through flaky connects: %v", err)
	}
	if id != "j000042" || *calls != 3 {
		t.Fatalf("id=%q calls=%d", id, *calls)
	}
}

func TestSubmitJobDoesNotRetryRejection(t *testing.T) {
	shortDelays(t)
	var calls int32
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, `{"error":"unknown attack"}`, http.StatusBadRequest)
	}))
	defer hts.Close()

	_, err := submitJob(context.Background(), hts.URL, &server.Spec{Attack: "nope"})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want one non-retried rejection", err, calls)
	}
}

func TestFollowTraceRetriesConnect(t *testing.T) {
	shortDelays(t)
	stream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Empty stream: the client sees EOF and returns nil.
	})
	h, calls := flakyHandler(2, stream)
	hts := httptest.NewServer(h)
	defer hts.Close()

	if err := followTrace(context.Background(), hts.URL, "j000001", false); err != nil {
		t.Fatalf("follow through flaky connects: %v", err)
	}
	if *calls != 3 {
		t.Fatalf("calls=%d, want 3", *calls)
	}
}

// TestRunServerFormatByExtension: with -format empty, -server mode
// names the upload's format with the same extension rule as local
// mode (netio.FormatForPath), so a .sv, .vlg or upper-case .V netlist
// is not sent to the daemon as .bench; an explicit -format still wins.
func TestRunServerFormatByExtension(t *testing.T) {
	submitted := make(chan string, 1)
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			var sp server.Spec
			if err := json.NewDecoder(r.Body).Decode(&sp); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			submitted <- sp.Format
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]string{"id": "j000001"})
		case r.URL.Path == "/v1/jobs/j000001/trace":
			w.Header().Set("Content-Type", "application/x-ndjson")
		case r.URL.Path == "/v1/jobs/j000001":
			json.NewEncoder(w).Encode(server.Status{ID: "j000001", State: server.StateDone})
		default:
			http.NotFound(w, r)
		}
	}))
	defer hts.Close()

	dir := t.TempDir()
	cases := []struct {
		file, format, want string
	}{
		{"c.v", "", "verilog"},
		{"c.sv", "", "verilog"},
		{"c.vlg", "", "verilog"},
		{"c.V", "", "verilog"},
		{"c.bench", "", "bench"},
		{"c.sv", "bench", "bench"},
	}
	for _, tc := range cases {
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, []byte("module m; endmodule\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		code := runServer(context.Background(), clientOptions{
			serverURL: hts.URL, in: path, format: tc.format, key: "1", attack: "sat",
		})
		if code != 0 {
			t.Fatalf("%s: runServer exit %d", tc.file, code)
		}
		if got := <-submitted; got != tc.want {
			t.Errorf("%s (-format %q): submitted format %q, want %q", tc.file, tc.format, got, tc.want)
		}
	}
}
