package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
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
