package httpfront

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"hfi/internal/host"
	"hfi/internal/stats"
)

// Client is the typed wire client every HFI tier uses to talk to a front
// (shard or router): context-aware Invoke/Statsz/Healthz/Drain over one
// reused connection pool, with the request-id contract handled in one
// place. It replaces the hand-rolled http.Post calls that used to be
// scattered across the load generator, -selfdrive, and the tests.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for base (e.g. "http://127.0.0.1:8080") with
// a dedicated keep-alive transport sized for open-loop load.
func NewClient(base string) *Client {
	return NewClientWith(base, &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 256},
	})
}

// NewClientWith builds a client over a caller-supplied http.Client — the
// router uses this to interpose its chaos partition transport per shard.
func NewClientWith(base string, hc *http.Client) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Base returns the server URL this client targets.
func (c *Client) Base() string { return c.base }

// InvokeResult is one invoke response, transport-error-free: the status
// code, the raw body (guest output on 200, the envelope bytes otherwise —
// kept raw so a router can relay them verbatim), the parsed envelope when
// one was present, and the echoed wire metadata.
type InvokeResult struct {
	Code int
	Body []byte
	// Envelope is the parsed ErrorEnvelope for non-2xx responses with a
	// JSON body; nil on 200 (and on malformed bodies, which keep Body).
	Envelope    *ErrorEnvelope
	RequestID   string // echoed RequestIDHeader
	RetryAfter  string // Retry-After header, "" if absent
	ContentType string
}

// Outcome folds the status code into its outcome class via OutcomeForCode.
func (r InvokeResult) Outcome() (stats.Outcome, bool) { return OutcomeForCode(r.Code) }

// Invoke runs one request against tenant. body may be nil (the tenant's
// synthetic stream); requestID, when non-empty, rides RequestIDHeader so
// duplicate (hedged) sends are collapsible downstream. A non-nil error is
// a transport failure — any HTTP status, including 5xx, returns nil error.
func (c *Client) Invoke(ctx context.Context, tenant string, body []byte, requestID string) (InvokeResult, error) {
	url := fmt.Sprintf("%s/v1/tenants/%s/invoke", c.base, tenant)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return InvokeResult{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if requestID != "" {
		req.Header.Set(RequestIDHeader, requestID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return InvokeResult{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return InvokeResult{}, err
	}
	res := InvokeResult{
		Code:        resp.StatusCode,
		Body:        raw,
		RequestID:   resp.Header.Get(RequestIDHeader),
		RetryAfter:  resp.Header.Get("Retry-After"),
		ContentType: resp.Header.Get("Content-Type"),
	}
	if resp.StatusCode != http.StatusOK {
		var eb ErrorEnvelope
		if json.Unmarshal(raw, &eb) == nil && eb.Outcome != "" {
			res.Envelope = &eb
		}
	}
	return res, nil
}

// InvokeRequest is Invoke as a host.Invoke, for the open-loop generator:
// r's tenant name is the route, r.Body (nil ⇒ the tenant's synthetic
// request) the payload, and the status code folds back into its outcome
// class. A transport error, or a code outside the outcome table (a 404
// for an unknown tenant), is an error.
func (c *Client) InvokeRequest(ctx context.Context, r host.Request) (stats.Outcome, []byte, error) {
	res, err := c.Invoke(ctx, r.Tenant.Name, r.Body, "")
	if err != nil {
		return 0, nil, err
	}
	o, ok := res.Outcome()
	if !ok {
		return 0, nil, fmt.Errorf("unexpected HTTP %d invoking %s", res.Code, r.Tenant.Name)
	}
	return o, res.Body, nil
}

// LoopbackTarget serves h on an ephemeral loopback listener and returns a
// sweep target that drives it over real HTTP through a typed client —
// wire cost, status mapping, and client disconnects included. Close shuts
// the listener down, then runs teardown for the stack behind h; teardown
// also runs when the listener cannot be opened.
func LoopbackTarget(h http.Handler, teardown func()) (host.Target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		teardown()
		return host.Target{}, err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	c := NewClient("http://" + ln.Addr().String())
	return host.Target{Invoke: c.InvokeRequest, Close: func() {
		c.CloseIdle()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		teardown()
	}}, nil
}

// Statsz fetches and unmarshals the server's StatszV1.
func (c *Client) Statsz(ctx context.Context) (StatszV1, error) {
	var doc StatszV1
	code, err := c.getJSON(ctx, "/statsz", &doc)
	if err != nil {
		return StatszV1{}, err
	}
	if code != http.StatusOK {
		return StatszV1{}, fmt.Errorf("statsz: HTTP %d", code)
	}
	if doc.SchemaVersion != StatszSchemaVersion {
		return StatszV1{}, fmt.Errorf("statsz: schema_version %d, want %d", doc.SchemaVersion, StatszSchemaVersion)
	}
	return doc, nil
}

// Healthz probes readiness: (true, nil) on 200, (false, nil) on the
// documented 503 draining answer, error otherwise.
func (c *Client) Healthz(ctx context.Context) (bool, error) {
	code, err := c.getJSON(ctx, "/healthz", nil)
	if err != nil {
		return false, err
	}
	switch code {
	case http.StatusOK:
		return true, nil
	case http.StatusServiceUnavailable:
		return false, nil
	default:
		return false, fmt.Errorf("healthz: HTTP %d", code)
	}
}

// Drain POSTs /drainz, flipping the server into draining.
func (c *Client) Drain(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/drainz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("drainz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// CloseIdle releases the transport's pooled connections.
func (c *Client) CloseIdle() { c.hc.CloseIdleConnections() }

func (c *Client) getJSON(ctx context.Context, path string, v any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v == nil || resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return resp.StatusCode, fmt.Errorf("decode %s: %w", path, err)
	}
	return resp.StatusCode, nil
}
