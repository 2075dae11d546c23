package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"zombie/internal/otrace"
)

// HTTPTransport talks JSON to dist worker endpoints served by
// zombie-serve (see internal/server's /dist/* routes): any zombie-serve
// process with the corpus registered is a worker. Per-run deadlines and
// cancellation ride on the request context, exactly like the rest of the
// serving layer; retry and backoff live in the coordinator, transport-
// independently, so both transports fail through the same code path.
type HTTPTransport struct {
	clients   []Client
	client    *http.Client
	closeOnce sync.Once
}

// NewHTTPTransport returns a transport over the given worker base URLs
// (scheme + host[:port], e.g. "http://127.0.0.1:8821"), one shard per
// address in order.
func NewHTTPTransport(addrs []string) *HTTPTransport {
	t := &HTTPTransport{client: &http.Client{}}
	for _, addr := range addrs {
		t.clients = append(t.clients, &httpClient{
			base: strings.TrimRight(addr, "/"),
			hc:   t.client,
		})
	}
	return t
}

func (t *HTTPTransport) Name() string      { return "http" }
func (t *HTTPTransport) Clients() []Client { return t.clients }

// Close releases idle connections.
func (t *HTTPTransport) Close() error {
	t.closeOnce.Do(func() { t.client.CloseIdleConnections() })
	return nil
}

// httpClient is one worker's JSON-over-HTTP connection.
type httpClient struct {
	base string
	hc   *http.Client
}

// maxResponseBytes bounds a worker response read. Holdout responses carry
// one encoded example per owned holdout input and dominate; 256 MiB is
// orders of magnitude above any real corpus slice while still refusing to
// buffer an endless stream from a confused endpoint.
const maxResponseBytes = 256 << 20

// post sends req as JSON and decodes the 200 response into resp. A
// non-200 with the server's {"error": "..."} body surfaces as an error
// with exactly that message — worker-produced errors must cross the wire
// verbatim for the transport-identity contract.
func (c *httpClient) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("dist: marshal %s request: %w", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("dist: build %s request: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Mirror the propagated trace context into the standard W3C header so
	// HTTP-level middleware (and the server handler's header fallback) see
	// the same value the wire field carries.
	if tc, ok := req.(traceCarrier); ok {
		if tp := tc.traceparent(); tp != "" {
			hreq.Header.Set(otrace.Header, tp)
		}
	}
	hres, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("dist: %s %s: %w", c.base, path, err)
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hres.Body, maxResponseBytes))
	if err != nil {
		return fmt.Errorf("dist: read %s response: %w", path, err)
	}
	if hres.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return errors.New(e.Error)
		}
		return fmt.Errorf("dist: %s %s: status %d", c.base, path, hres.StatusCode)
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("dist: decode %s response: %w", path, err)
	}
	return nil
}

func (c *httpClient) Init(ctx context.Context, req InitRequest) (InitResponse, error) {
	var resp InitResponse
	if err := c.post(ctx, "/dist/init", req, &resp); err != nil {
		return InitResponse{}, err
	}
	return resp, nil
}

func (c *httpClient) Holdout(ctx context.Context, req HoldoutRequest) (HoldoutResponse, error) {
	var resp HoldoutResponse
	if err := c.post(ctx, "/dist/holdout", req, &resp); err != nil {
		return HoldoutResponse{}, err
	}
	if err := resp.DecodeResults(); err != nil {
		return HoldoutResponse{}, err
	}
	return resp, nil
}

func (c *httpClient) StepBatch(ctx context.Context, req StepBatchRequest) (StepBatchResponse, error) {
	var resp StepBatchResponse
	if err := c.post(ctx, "/dist/step-batch", req, &resp); err != nil {
		return StepBatchResponse{}, err
	}
	if err := resp.DecodeResults(); err != nil {
		return StepBatchResponse{}, err
	}
	return resp, nil
}

func (c *httpClient) Finish(ctx context.Context, req FinishRequest) (FinishResponse, error) {
	var resp FinishResponse
	if err := c.post(ctx, "/dist/finish", req, &resp); err != nil {
		return FinishResponse{}, err
	}
	return resp, nil
}
