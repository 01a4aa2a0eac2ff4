package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"time"

	"dufp"
)

// FullHandler returns the daemon's one HTTP surface: the /v1 Run API
// and, over the daemon's registry, /metrics (Prometheus text),
// /metrics.json and /debug/pprof/. It is what cmd/dufpd listens on and
// what dufpbench -listen and -loadgen serve. The /v1 routes are
// method-scoped (Go 1.22 patterns) and instrumented: every request
// increments api_http_requests_total{route,code} and observes
// api_http_request_seconds{route}. Any other path answers 404 with a
// JSON error body, like every /v1 error.
func (d *Daemon) FullHandler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, label string, h http.HandlerFunc) {
		mux.Handle(pattern, d.instrument(label, h))
	}
	route("GET /v1/healthz", "healthz", d.handleHealthz)
	route("POST /v1/runs", "runs_submit", d.handleSubmitRun)
	route("GET /v1/runs", "runs_list", d.handleListRuns)
	route("GET /v1/runs/{id}", "runs_get", d.handleGetRun)
	route("GET /v1/runs/{id}/events", "runs_events", d.handleRunEvents)
	route("GET /v1/runs/{id}/trace", "runs_trace", d.handleRunTrace)
	route("GET /v1/runs/{id}/samples", "runs_samples", d.handleRunSamples)
	route("POST /v1/campaigns", "campaigns_submit", d.handleSubmitCampaign)
	route("GET /v1/campaigns", "campaigns_list", d.handleListCampaigns)
	route("GET /v1/campaigns/{id}", "campaigns_get", d.handleGetCampaign)
	route("GET /v1/campaigns/{id}/events", "campaigns_events", d.handleCampaignEvents)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/metrics.json", d.handleMetricsJSON)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such route"})
	})
	return mux
}

// statusRecorder captures the response code for the request metrics,
// plus the run ID a handler tags the request with — the exemplar that
// links a latency bucket back to a concrete run.
type statusRecorder struct {
	http.ResponseWriter
	code     int
	exemplar string
}

// tagExemplar marks the request's latency sample with a run identity;
// no-op when w is not the instrumentation recorder.
func tagExemplar(w http.ResponseWriter, runID string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.exemplar = runID
	}
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE streaming works
// through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (d *Daemon) instrument(label string, h http.HandlerFunc) http.Handler {
	hist := d.mReqSec.With(label)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		hist.ObserveExemplar(time.Since(start).Seconds(), rec.exemplar)
		d.mReqs.With(label, strconv.Itoa(rec.code)).Inc()
	})
}

// writeJSON writes v as a compact JSON response body, the bytes
// json.Encoder writes: json.Marshal's and a newline. A value that does
// not marshal, such as a NaN, answers 500 instead of its code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = json.Marshal(errorBody{Error: fmt.Sprintf("encoding response: %v", err)})
	}
	writeBody(w, code, "application/json", append(b, '\n'))
}

// writeBody sends a whole body with its Content-Length, so that a
// client can read it into one buffer of that size.
func writeBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// writeRendered sends what render writes as one whole body. A render
// that fails answers 500 with its error instead of a partial body.
func writeRendered(w http.ResponseWriter, contentType string, render func(io.Writer) error) {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("encoding response: %v", err)})
		return
	}
	writeBody(w, http.StatusOK, contentType, buf.Bytes())
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeRendered(w, "text/plain; version=0.0.4; charset=utf-8", d.reg.WritePrometheus)
}

func (d *Daemon) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeRendered(w, "application/json", d.reg.WriteJSON)
}

// writeError maps a submission error to its status code.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Health())
}

func (d *Daemon) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var spec dufp.RunSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding run spec: %v", err)})
		return
	}
	status, err := d.SubmitRun(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	tagExemplar(w, status.ID)
	code := http.StatusAccepted
	if terminal(status.State) {
		code = http.StatusOK
	}
	writeJSON(w, code, status)
}

func (d *Daemon) handleListRuns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Runs())
}

func (d *Daemon) handleGetRun(w http.ResponseWriter, r *http.Request) {
	status, ok := d.RunStatus(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown run"})
		return
	}
	tagExemplar(w, status.ID)
	// The full result — with the retained trace series — is opt-in: large
	// artifacts never ride on the default status body.
	if r.URL.Query().Get("include") == "trace" {
		if res, ok := d.runResultWithTrace(status.ID); ok {
			status.Result = res
		}
	}
	writeJSON(w, http.StatusOK, status)
}

// handleRunSamples pages a run's retained trace samples:
// ?socket=&offset=&limit= selects the page, ?format=ndjson streams the
// whole retained view (offset onward) as one JSON object per line in
// the wire trace-point vocabulary instead of a paginated envelope.
func (d *Daemon) handleRunSamples(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	socket, err := intParam(q.Get("socket"), 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad socket"})
		return
	}
	offset, err := intParam(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad offset"})
		return
	}
	limit, err := intParam(q.Get("limit"), 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad limit"})
		return
	}
	page, ok := d.RunSamples(id, socket, offset, limit)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no samples retained for run"})
		return
	}
	tagExemplar(w, id)
	if q.Get("format") == "ndjson" {
		d.streamSamples(w, page, socket, limit)
		return
	}
	body, err := appendSamplesPage(make([]byte, 0, samplesPageCap(&page)), &page)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("encoding samples: %v", err)})
		return
	}
	writeBody(w, http.StatusOK, "application/json", body)
}

// streamSamples writes the NDJSON stream that starts with page, one
// page per Write. A point that does not encode, such as a NaN, answers
// 500 if it is on the first page; on a later page the stream ends just
// before it, so the lines sent are always a prefix of the series.
func (d *Daemon) streamSamples(w http.ResponseWriter, page RunSamples, socket, limit int) {
	var buf []byte
	for first := true; ; first = false {
		buf = slices.Grow(buf[:0], len(page.Points)*pointBytesEstimate)
		var err error
		for i := range page.Points {
			n := len(buf)
			if buf, err = appendSamplePoint(buf, &page.Points[i]); err != nil {
				buf = buf[:n]
				break
			}
			buf = append(buf, '\n')
		}
		if first {
			if err != nil {
				writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("encoding samples: %v", err)})
				return
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		w.Write(buf)
		if err != nil || page.Next < 0 {
			return
		}
		var ok bool
		if page, ok = d.RunSamples(page.ID, socket, page.Next, limit); !ok {
			return
		}
	}
}

// intParam parses an optional decimal query parameter.
func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

// handleRunTrace serves a run's span tree from its record: Chrome
// trace-event JSON by default (loads in Perfetto), or the compact
// per-stage summary with ?format=summary.
func (d *Daemon) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := d.Spans().Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no trace recorded for run"})
		return
	}
	tagExemplar(w, id)
	if r.URL.Query().Get("format") == "summary" {
		writeJSON(w, http.StatusOK, tr.Summary())
		return
	}
	writeRendered(w, "application/json", tr.WriteTraceEvents)
}

func (d *Daemon) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding campaign spec: %v", err)})
		return
	}
	status, err := d.SubmitCampaign(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	code := http.StatusAccepted
	if terminal(status.State) {
		code = http.StatusOK
	}
	writeJSON(w, code, status)
}

func (d *Daemon) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Campaigns())
}

func (d *Daemon) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	status, ok := d.CampaignStatus(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown campaign"})
		return
	}
	writeJSON(w, http.StatusOK, status)
}

func (d *Daemon) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, ok := d.SubscribeRun(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown run"})
		return
	}
	defer cancel()
	serveSSE(w, r, ch, func() (RunStatus, bool) { return d.RunStatus(r.PathValue("id")) },
		func(s RunStatus) bool { return terminal(s.State) })
}

func (d *Daemon) handleCampaignEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, ok := d.SubscribeCampaign(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown campaign"})
		return
	}
	defer cancel()
	serveSSE(w, r, ch, func() (CampaignStatus, bool) { return d.CampaignStatus(r.PathValue("id")) },
		func(s CampaignStatus) bool { return terminal(s.State) })
}

// serveSSE streams status snapshots as server-sent events until the
// subscription closes (subject terminal) or the client disconnects.
// Because slow subscribers may drop intermediate snapshots, a stream
// whose last snapshot sent was not terminal re-fetches the final
// authoritative status and sends it before it ends; either way exactly
// one terminal status precedes the end event. isTerminal decides by the
// snapshot's state, not its bytes: a campaign's terminal snapshot and
// its re-fetch differ.
func serveSSE[T any](w http.ResponseWriter, r *http.Request, ch <-chan T, final func() (T, bool), isTerminal func(T) bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	send := func(v T) {
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: status\ndata: %s\n\n", b)
		flusher.Flush()
	}
	sentTerminal := false
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		case v, open := <-ch:
			if !open {
				if last, ok := final(); ok && !sentTerminal {
					send(last)
				}
				fmt.Fprint(w, "event: end\ndata: {}\n\n")
				flusher.Flush()
				return
			}
			send(v)
			sentTerminal = isTerminal(v)
		}
	}
}
