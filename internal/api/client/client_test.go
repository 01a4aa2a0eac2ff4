package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dufp/internal/api"
)

// TestShortBodyIsAnError serves a samples page that ends before its
// declared Content-Length: the client must report it, not decode the
// bytes it got.
func TestShortBodyIsAnError(t *testing.T) {
	const part = `{"id":"x","socket":0,"sockets":1,"seen":0,"stride":1,"total":0,"offset":0,"next":-1,"points":[]}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		w.Write([]byte(part))
	}))
	defer srv.Close()
	if page, err := New(srv.URL).Samples(context.Background(), "x", 0, 0, 0); err == nil {
		t.Fatalf("short body decoded to %+v", page)
	}
}

// TestDefaultHTTPTimeout pins what a nil HTTP means for the
// non-streaming calls: a whole-request timeout, so a daemon that accepts
// the connection and never answers cannot hang a call whose context has
// no deadline.
func TestDefaultHTTPTimeout(t *testing.T) {
	if got := New("http://127.0.0.1:1").httpClient().Timeout; got <= 0 {
		t.Errorf("non-streaming calls of a nil-HTTP client have timeout %v, want one", got)
	}
}

// TestStreamOutlivesRequestTimeout drives both kinds of call through a
// client whose request timeout is short: a status call on a daemon that
// never answers fails with it, while WaitRun's SSE stream, which lasts
// longer than the timeout, still delivers the terminal status.
func TestStreamOutlivesRequestTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	stall := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-stall:
		}
	})
	mux.HandleFunc("GET /v1/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, state := range []string{api.StateRunning, api.StateDone} {
			fmt.Fprintf(w, "data: {\"id\":\"x\",\"state\":%q}\n\n", state)
			w.(http.Flusher).Flush()
			time.Sleep(3 * timeout)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer close(stall)
	c := New(srv.URL)
	c.HTTP = &http.Client{Timeout: timeout}
	ctx := context.Background()

	start := time.Now()
	_, err := c.Run(ctx, "x")
	if err == nil || time.Since(start) > 20*timeout {
		t.Fatalf("status call on a silent daemon: err %v after %v, want the request timeout", err, time.Since(start))
	}
	var timeoutErr interface{ Timeout() bool }
	if !errors.As(err, &timeoutErr) || !timeoutErr.Timeout() {
		t.Fatalf("status call error %v is not a timeout", err)
	}

	// Polling would stall on the status handler, so a terminal status
	// can only have come from the stream.
	st, err := c.WaitRun(ctx, "x", nil)
	if err != nil || st.State != api.StateDone {
		t.Fatalf("WaitRun = %+v, %v; want the stream's terminal status", st, err)
	}
}
