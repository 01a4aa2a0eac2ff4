// Package client is the Go client of the dufpd Run API: typed wrappers
// over the /v1 HTTP surface, with SSE streaming (and polling fallback)
// for waiting on runs and campaigns. It is what dufpbench -loadgen and
// the daemon's end-to-end tests drive the API through.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"dufp"
	"dufp/internal/api"
)

// APIError is a non-2xx response from the daemon.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("api: HTTP %d: %s", e.StatusCode, e.Message)
}

// IsRetryable reports whether the request may succeed later: queue
// backpressure (429) or a draining daemon (503).
func (e *APIError) IsRetryable() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode == http.StatusServiceUnavailable
}

// Client talks to one dufpd instance.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client; nil means a default with sane
	// timeouts for the non-streaming calls.
	HTTP *http.Client
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// maxBody caps how much of a response body the client reads.
const maxBody = 64 << 20

// do performs one JSON request/response exchange.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	payload, err := c.exchange(ctx, method, path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, out)
}

// exchange sends one request, with body as JSON when it is not nil, and
// returns the body of a 2xx response.
func (c *Client) exchange(ctx context.Context, method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	payload, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, responseError(resp.StatusCode, payload)
	}
	return payload, nil
}

// readBody reads a response body of at most maxBody bytes: into one
// buffer of its declared Content-Length when there is one, else by
// io.ReadAll. A body shorter than its Content-Length is an error.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n <= 0 || n > maxBody {
		return io.ReadAll(io.LimitReader(resp.Body, maxBody))
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, b); err != nil {
		return nil, fmt.Errorf("reading %d-byte response body: %w", n, err)
	}
	return b, nil
}

// responseError is the error for a non-2xx response with body payload.
func responseError(code int, payload []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		return &APIError{StatusCode: code, Message: e.Error}
	}
	return &APIError{StatusCode: code, Message: strings.TrimSpace(string(payload))}
}

// Healthz fetches the daemon's health snapshot.
func (c *Client) Healthz(ctx context.Context) (api.Health, error) {
	var h api.Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// SubmitRun submits one run for execution. The spec crosses the wire in
// the canonical schema, so the daemon computes the same run ID a local
// session would.
func (c *Client) SubmitRun(ctx context.Context, spec dufp.RunSpec) (api.RunStatus, error) {
	var s api.RunStatus
	err := c.do(ctx, http.MethodPost, "/v1/runs", spec, &s)
	return s, err
}

// Run fetches one run's status.
func (c *Client) Run(ctx context.Context, id string) (api.RunStatus, error) {
	var s api.RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &s)
	return s, err
}

// RunWithTrace fetches one run's status with the full wire v1.1 result
// embedded (?include=trace): the measurement plus the daemon's retained
// trace series and its exact summary. Status.Result is nil when the
// daemon retains no samples for the run.
func (c *Client) RunWithTrace(ctx context.Context, id string) (api.RunStatus, error) {
	var s api.RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+id+"?include=trace", nil, &s)
	return s, err
}

// Samples fetches one page of a run's retained trace samples. socket
// selects the series, offset/limit cut the page (limit <= 0 fetches the
// remainder); page.Next is the next page's offset, -1 on the last.
func (c *Client) Samples(ctx context.Context, id string, socket, offset, limit int) (api.RunSamples, error) {
	path := fmt.Sprintf("/v1/runs/%s/samples?socket=%d&offset=%d", id, socket, offset)
	if limit > 0 {
		path += fmt.Sprintf("&limit=%d", limit)
	}
	payload, err := c.exchange(ctx, http.MethodGet, path, nil)
	if err != nil {
		return api.RunSamples{}, err
	}
	return api.DecodeSamplesPage(payload)
}

// StreamSamples consumes a run's retained samples as NDJSON, invoking
// fn once per sample in time order without materialising the series.
// A non-nil error from fn stops the stream and is returned.
func (c *Client) StreamSamples(ctx context.Context, id string, socket int, fn func(api.SamplePoint) error) error {
	path := fmt.Sprintf("%s/v1/runs/%s/samples?socket=%d&format=ndjson", c.BaseURL, id, socket)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return responseError(resp.StatusCode, payload)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		p, err := api.DecodeSamplePoint(line)
		if err != nil {
			return err
		}
		if err := fn(p); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Runs lists the daemon's tracked runs.
func (c *Client) Runs(ctx context.Context) ([]api.RunStatus, error) {
	var s []api.RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs", nil, &s)
	return s, err
}

// WaitRun blocks until the run is terminal, streaming state changes
// over SSE and falling back to polling if the stream fails.
func (c *Client) WaitRun(ctx context.Context, id string, onProgress func(api.RunStatus)) (api.RunStatus, error) {
	var last api.RunStatus
	terminal, err := c.stream(ctx, "/v1/runs/"+id+"/events", func(data []byte) (bool, error) {
		if err := json.Unmarshal(data, &last); err != nil {
			return false, err
		}
		if onProgress != nil {
			onProgress(last)
		}
		return last.State == api.StateDone || last.State == api.StateFailed, nil
	})
	if err == nil && terminal {
		return last, nil
	}
	if ctx.Err() != nil {
		return last, ctx.Err()
	}
	return c.pollRun(ctx, id, onProgress)
}

func (c *Client) pollRun(ctx context.Context, id string, onProgress func(api.RunStatus)) (api.RunStatus, error) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		s, err := c.Run(ctx, id)
		if err != nil {
			return s, err
		}
		if onProgress != nil {
			onProgress(s)
		}
		if s.State == api.StateDone || s.State == api.StateFailed {
			return s, nil
		}
		select {
		case <-ctx.Done():
			return s, ctx.Err()
		case <-tick.C:
		}
	}
}

// SubmitCampaign submits a campaign. Submission is idempotent:
// resubmitting the same spec returns the tracked campaign.
func (c *Client) SubmitCampaign(ctx context.Context, spec api.CampaignSpec) (api.CampaignStatus, error) {
	var s api.CampaignStatus
	err := c.do(ctx, http.MethodPost, "/v1/campaigns", spec, &s)
	return s, err
}

// Campaign fetches one campaign's status, including member run IDs.
func (c *Client) Campaign(ctx context.Context, id string) (api.CampaignStatus, error) {
	var s api.CampaignStatus
	err := c.do(ctx, http.MethodGet, "/v1/campaigns/"+id, nil, &s)
	return s, err
}

// Campaigns lists the daemon's tracked campaigns.
func (c *Client) Campaigns(ctx context.Context) ([]api.CampaignStatus, error) {
	var s []api.CampaignStatus
	err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil, &s)
	return s, err
}

// WaitCampaign blocks until the campaign is terminal, streaming
// per-run progress over SSE with a polling fallback.
func (c *Client) WaitCampaign(ctx context.Context, id string, onProgress func(api.CampaignStatus)) (api.CampaignStatus, error) {
	var last api.CampaignStatus
	terminal, err := c.stream(ctx, "/v1/campaigns/"+id+"/events", func(data []byte) (bool, error) {
		if err := json.Unmarshal(data, &last); err != nil {
			return false, err
		}
		if onProgress != nil {
			onProgress(last)
		}
		return last.State == api.StateDone || last.State == api.StateFailed, nil
	})
	if err == nil && terminal {
		// The terminal SSE snapshot omits member run IDs; fetch the
		// detail view.
		return c.Campaign(ctx, id)
	}
	if ctx.Err() != nil {
		return last, ctx.Err()
	}
	return c.pollCampaign(ctx, id, onProgress)
}

func (c *Client) pollCampaign(ctx context.Context, id string, onProgress func(api.CampaignStatus)) (api.CampaignStatus, error) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		s, err := c.Campaign(ctx, id)
		if err != nil {
			return s, err
		}
		if onProgress != nil {
			onProgress(s)
		}
		if s.State == api.StateDone || s.State == api.StateFailed {
			return s, nil
		}
		select {
		case <-ctx.Done():
			return s, ctx.Err()
		case <-tick.C:
		}
	}
}

// stream consumes one SSE endpoint, invoking onData for each data
// payload until it reports the subject terminal (returned as true), the
// stream ends, or ctx is cancelled. A transport or decode error returns
// false with the error — callers fall back to polling.
func (c *Client) stream(ctx context.Context, path string, onData func([]byte) (bool, error)) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	// Streaming must not inherit a request timeout: rely on ctx.
	httpc := &http.Client{Transport: c.httpClient().Transport}
	resp, err := httpc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, &APIError{StatusCode: resp.StatusCode, Message: "SSE refused"}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		payload := strings.TrimPrefix(line, "data: ")
		if payload == "{}" {
			continue // end-of-stream marker
		}
		terminal, err := onData([]byte(payload))
		if err != nil {
			return false, err
		}
		if terminal {
			return true, nil
		}
	}
	return false, sc.Err()
}
