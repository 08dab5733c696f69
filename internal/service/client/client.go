// Package client is the Go client of the mapd mapping service. It
// speaks the wire protocol of package service over HTTP, or — for
// embedding the service in a harness or test without a socket —
// directly against the service's http.Handler, byte-identical to the
// wire path.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/service"
)

// Client calls a mapd server. Solving calls speak the binary frame
// protocol (POST /v2/*) by default; WithProtocol(ProtoJSON) forces the
// JSON envelope (/v1/*).
type Client struct {
	base string
	hc   *http.Client

	proto Protocol    // ProtoBinary by default
	memo  sectionMemo // client-side intern memo (binary protocol)
}

// New returns a client for a server at baseURL (e.g.
// "http://localhost:8080"). hc may be nil for http.DefaultClient.
func New(baseURL string, hc *http.Client, opts ...Option) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: baseURL, hc: hc}
	for _, o := range opts {
		o(c)
	}
	return c
}

// InProcess returns a client that dispatches straight into the
// handler — same codecs, same routes, no socket. Use it to embed the
// service in the experiment harness or in tests.
func InProcess(h http.Handler, opts ...Option) *Client {
	return New("http://mapd.inprocess", &http.Client{Transport: handlerTransport{h: h}}, opts...)
}

// handlerTransport adapts an http.Handler to a RoundTripper.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := &responseRecorder{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, r)
	return &http.Response{
		Status:        http.StatusText(rec.code),
		StatusCode:    rec.code,
		Proto:         r.Proto,
		ProtoMajor:    r.ProtoMajor,
		ProtoMinor:    r.ProtoMinor,
		Header:        rec.header,
		Body:          io.NopCloser(&rec.body),
		ContentLength: int64(rec.body.Len()),
		Request:       r,
	}, nil
}

// responseRecorder is the minimal in-memory http.ResponseWriter the
// in-process transport needs.
type responseRecorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
	wrote  bool
}

func (r *responseRecorder) Header() http.Header { return r.header }
func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.body.Write(p)
}
func (r *responseRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

// do posts (or gets) a JSON payload and decodes the response into
// out, turning non-2xx payloads into errors.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e service.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("mapd: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("mapd: HTTP %d on %s", resp.StatusCode, path)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Map runs one mapping job (POST /v2/map, or /v1/map under
// ProtoJSON).
func (c *Client) Map(ctx context.Context, req service.MapRequest) (*service.MapResponse, error) {
	if c.proto == ProtoBinary {
		return c.mapBinary(ctx, req)
	}
	var out service.MapResponse
	if err := c.do(ctx, http.MethodPost, "/v1/map", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MapBatch runs several mapper runs against one shared engine
// (POST /v2/map/batch, or /v1/map/batch under ProtoJSON).
func (c *Client) MapBatch(ctx context.Context, req service.BatchRequest) (*service.BatchResponse, error) {
	if c.proto == ProtoBinary {
		return c.batchBinary(ctx, req)
	}
	var out service.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/map/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Portfolio races a candidate set against one shared engine toward a
// declared objective and returns the winner plus the per-candidate
// leaderboard (POST /v1/portfolio; the portfolio speaks JSON only).
func (c *Client) Portfolio(ctx context.Context, req service.PortfolioRequest) (*service.PortfolioResponse, error) {
	var out service.PortfolioResponse
	if err := c.do(ctx, http.MethodPost, "/v1/portfolio", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Remap incrementally remaps a cached result — referenced by the
// fingerprint an earlier Map or Remap response returned — onto a
// changed allocation (POST /v2/remap, or /v1/remap under ProtoJSON).
// The response carries a fresh fingerprint, so allocation deltas chain
// without re-sending the task graph.
func (c *Client) Remap(ctx context.Context, req service.RemapRequest) (*service.RemapResponse, error) {
	if c.proto == ProtoBinary {
		return c.remapBinary(ctx, req)
	}
	var out service.RemapResponse
	if err := c.do(ctx, http.MethodPost, "/v1/remap", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Status snapshots the server's live counters (GET /statusz).
func (c *Client) Status(ctx context.Context) (*service.Status, error) {
	var out service.Status
	if err := c.do(ctx, http.MethodGet, "/statusz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
