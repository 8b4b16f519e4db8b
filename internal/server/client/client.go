// Package client is the typed Go client for the cogdiff server HTTP
// API (internal/server). The `cogdiff submit` verb is built on it.
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

	"cogdiff/internal/server"
)

// Client talks to one cogdiff server.
type Client struct {
	base string
	http *http.Client
}

// New builds a client for a base URL like "http://127.0.0.1:8377". A
// trailing slash is tolerated.
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// apiError is a non-2xx response, carrying the server's JSON error body
// when one was sent.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.Status, e.Msg)
}

func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var eb struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &apiError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	if raw, ok := out.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, out)
}

// Health probes GET /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// WaitHealthy polls /healthz until it answers or the timeout elapses —
// the handshake `cogdiff submit` performs against a just-started server.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout) //cogdiff:allow-nondeterminism client deadline bookkeeping, not report content
	var last error
	for time.Now().Before(deadline) { //cogdiff:allow-nondeterminism client deadline bookkeeping, not report content
		if last = c.Health(ctx); last == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy after %s: %w", c.base, timeout, last)
}

// Submit posts a job spec; the returned status carries the job ID.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.JobStatus{}, err
	}
	var st server.JobStatus
	err = c.do(ctx, http.MethodPost, "/v1/jobs", body, &st)
	return st, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Jobs lists every job in submission order.
func (c *Client) Jobs(ctx context.Context) ([]server.JobStatus, error) {
	var out []server.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobStatus, error) {
	var st server.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Wait polls a job until it reaches a terminal state. poll <= 0 uses
// 100ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Events streams a job's SSE events, invoking fn for each until the
// done event, the context cancels, or the stream ends. fn returning an
// error stops the stream with that error.
func (c *Client) Events(ctx context.Context, id string, fn func(server.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return &apiError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxEventBytes)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return fmt.Errorf("bad event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Type == server.EventDone {
			return nil
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

const maxEventBytes = 1 << 20

// GetCorpus fetches the shared corpus document (go-fuzz-format JSON).
func (c *Client) GetCorpus(ctx context.Context) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/corpus", nil, &raw)
	return raw, err
}

// CorpusPutResult mirrors the PUT /v1/corpus response.
type CorpusPutResult struct {
	Received int `json:"received"`
	Added    int `json:"added"`
	Total    int `json:"total"`
}

// PutCorpus merges a corpus document into the shared store.
func (c *Client) PutCorpus(ctx context.Context, doc []byte) (CorpusPutResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+"/v1/corpus", bytes.NewReader(doc))
	if err != nil {
		return CorpusPutResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return CorpusPutResult{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return CorpusPutResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return CorpusPutResult{}, &apiError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	}
	var out CorpusPutResult
	return out, json.Unmarshal(data, &out)
}

// Metrics fetches the raw /metrics exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &raw)
	return string(raw), err
}
