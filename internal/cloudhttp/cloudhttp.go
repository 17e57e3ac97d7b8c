// Package cloudhttp exposes any cloud.Interface as a RESTful Web API
// over real HTTP, and provides a client that speaks that API —
// closing the loop on the paper's constraint that UniDrive may use
// only "few simple public RESTful Web APIs".
//
// The API mirrors the five calls:
//
//	PUT    /files/{path}   upload (request body is the content)
//	GET    /files/{path}   download
//	GET    /list/{path}    list a directory (JSON array of entries)
//	POST   /dirs/{path}    create a directory
//	DELETE /files/{path}   delete a file or directory
//
// Error classes travel in the X-Unidrive-Error response header so the
// client can map them back onto the cloud package's sentinel errors.
// cmd/unicloud serves this API backed by a netsim-shaped simulated
// store; integration tests and the resthttp example run the full
// UniDrive stack through it.
package cloudhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/obs"
)

// errorHeader carries the error class from server to client.
const errorHeader = "X-Unidrive-Error"

// Error-class header values.
const (
	errNotFound    = "not-found"
	errQuota       = "quota-exceeded"
	errUnavailable = "unavailable"
	errTransient   = "transient"
)

// Handler serves a cloud.Interface over HTTP.
type Handler struct {
	backend cloud.Interface
	mux     *http.ServeMux
}

var _ http.Handler = (*Handler)(nil)

// NewHandler wraps backend in the REST API.
func NewHandler(backend cloud.Interface) *Handler {
	h := &Handler{backend: backend, mux: http.NewServeMux()}
	h.mux.HandleFunc("/files/", h.files)
	h.mux.HandleFunc("/list/", h.list)
	h.mux.HandleFunc("/dirs/", h.dirs)
	h.mux.HandleFunc("/name", h.name)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// EnableDebug mounts live observability endpoints on the handler:
// GET /debug/unidrive returns reg's Snapshot as JSON, and GET
// /debug/vars serves the process's expvar page (use obs.PublishExpvar
// to include reg there too). Call once, before serving; reg is
// typically the registry of the transfer.Observed wrapper around this
// handler's backend, so the snapshot reflects exactly the API calls
// this server executed.
func (h *Handler) EnableDebug(reg *obs.Registry) {
	h.mux.Handle("/debug/unidrive", reg)
	h.mux.Handle("/debug/vars", expvar.Handler())
}

func trimPath(r *http.Request, prefix string) (string, error) {
	p := strings.TrimPrefix(r.URL.EscapedPath(), prefix)
	p = strings.TrimSuffix(p, "/")
	unescaped, err := url.PathUnescape(p)
	if err != nil {
		return "", fmt.Errorf("cloudhttp: bad path escape: %w", err)
	}
	return unescaped, nil
}

// writeErr maps cloud errors onto HTTP statuses and the error header.
func writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cloud.ErrNotFound):
		w.Header().Set(errorHeader, errNotFound)
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, cloud.ErrQuotaExceeded):
		w.Header().Set(errorHeader, errQuota)
		http.Error(w, err.Error(), http.StatusInsufficientStorage)
	case errors.Is(err, cloud.ErrUnavailable):
		w.Header().Set(errorHeader, errUnavailable)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, cloud.ErrTransient):
		w.Header().Set(errorHeader, errTransient)
		http.Error(w, err.Error(), http.StatusBadGateway)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (h *Handler) files(w http.ResponseWriter, r *http.Request) {
	path, err := trimPath(r, "/files/")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := h.backend.Upload(r.Context(), path, data); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodGet:
		data, err := h.backend.Download(r.Context(), path)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	case http.MethodDelete:
		if err := h.backend.Delete(r.Context(), path); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (h *Handler) list(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	path, err := trimPath(r, "/list/")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	entries, err := h.backend.List(r.Context(), path)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(entries); err != nil {
		// Headers already sent; nothing sensible to do.
		return
	}
}

func (h *Handler) dirs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	path, err := trimPath(r, "/dirs/")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := h.backend.CreateDir(r.Context(), path); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *Handler) name(w http.ResponseWriter, r *http.Request) {
	_, _ = io.WriteString(w, h.backend.Name())
}

// DefaultOpTimeout bounds each API call of a Client unless changed
// with SetOpTimeout. Real consumer clouds hang connections under load;
// an unbounded call would stall a whole transfer batch, so the client
// fails the call as transient and lets the retry/hedging machinery
// take over.
const DefaultOpTimeout = 30 * time.Second

// Client is a cloud.Interface speaking the REST API of a Handler.
type Client struct {
	name      string
	baseURL   string
	http      *http.Client
	opTimeout time.Duration
}

var _ cloud.Interface = (*Client)(nil)

// Dial fetches the remote cloud's name and returns a client for it.
func Dial(ctx context.Context, baseURL string, hc *http.Client) (*Client, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	baseURL = strings.TrimSuffix(baseURL, "/")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/name", nil)
	if err != nil {
		return nil, fmt.Errorf("cloudhttp: %w", err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cloudhttp: dialing %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	name, err := io.ReadAll(io.LimitReader(resp.Body, 256))
	if err != nil || resp.StatusCode != http.StatusOK || len(name) == 0 {
		return nil, fmt.Errorf("cloudhttp: %s did not identify itself (status %d)", baseURL, resp.StatusCode)
	}
	return &Client{name: string(name), baseURL: baseURL, http: hc, opTimeout: DefaultOpTimeout}, nil
}

// Name implements cloud.Interface.
func (c *Client) Name() string { return c.name }

// SetOpTimeout changes the per-call deadline (default DefaultOpTimeout).
// d <= 0 removes the bound. Not safe to call concurrently with API
// calls; configure the client before handing it to a transfer engine.
func (c *Client) SetOpTimeout(d time.Duration) { c.opTimeout = d }

// OpTimeout reports the current per-call deadline.
func (c *Client) OpTimeout() time.Duration { return c.opTimeout }

// mapErr converts an HTTP error response into the sentinel errors.
func mapErr(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	var base error
	switch resp.Header.Get(errorHeader) {
	case errNotFound:
		base = cloud.ErrNotFound
	case errQuota:
		base = cloud.ErrQuotaExceeded
	case errUnavailable:
		base = cloud.ErrUnavailable
	case errTransient:
		base = cloud.ErrTransient
	default:
		// Untagged failures (proxies, timeouts) are worth retrying.
		base = cloud.ErrTransient
	}
	return fmt.Errorf("cloudhttp: status %d: %s: %w", resp.StatusCode, msg, base)
}

// do issues one request under the per-op deadline. The returned
// cancel func releases the deadline timer and must be called after
// the response body has been consumed (a deferred call in each API
// method), never before — cancelling early aborts the body read.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, context.CancelFunc, error) {
	octx, cancel := ctx, context.CancelFunc(func() {})
	if c.opTimeout > 0 {
		octx, cancel = context.WithTimeout(ctx, c.opTimeout)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(octx, method, c.baseURL+path, rd)
	if err != nil {
		cancel()
		return nil, nil, fmt.Errorf("cloudhttp: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		if ctx.Err() != nil {
			// The caller gave up; report that, not a cloud fault — a
			// circuit breaker must not count cancellations against the
			// cloud.
			return nil, nil, fmt.Errorf("cloudhttp: %s %s: %w", method, path, ctx.Err())
		}
		// Network-level failure or per-op timeout: transient from the
		// caller's view.
		return nil, nil, fmt.Errorf("cloudhttp: %s %s: %v: %w", method, path, err, cloud.ErrTransient)
	}
	return resp, cancel, nil
}

func escape(path string) string {
	parts := strings.Split(path, "/")
	for i, p := range parts {
		parts[i] = url.PathEscape(p)
	}
	return strings.Join(parts, "/")
}

// Upload implements cloud.Interface.
func (c *Client) Upload(ctx context.Context, path string, data []byte) error {
	if err := cloud.ValidatePath(path); err != nil {
		return err
	}
	if data == nil {
		data = []byte{} // ensure a body so the server reads EOF, not nil
	}
	resp, done, err := c.do(ctx, http.MethodPut, "/files/"+escape(path), data)
	if err != nil {
		return err
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return mapErr(resp)
	}
	return nil
}

// Download implements cloud.Interface.
func (c *Client) Download(ctx context.Context, path string) ([]byte, error) {
	if err := cloud.ValidatePath(path); err != nil {
		return nil, err
	}
	resp, done, err := c.do(ctx, http.MethodGet, "/files/"+escape(path), nil)
	if err != nil {
		return nil, err
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, mapErr(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("cloudhttp: reading body: %w", ctx.Err())
		}
		return nil, fmt.Errorf("cloudhttp: reading body: %v: %w", err, cloud.ErrTransient)
	}
	return data, nil
}

// CreateDir implements cloud.Interface.
func (c *Client) CreateDir(ctx context.Context, path string) error {
	if err := cloud.ValidatePath(path); err != nil {
		return err
	}
	resp, done, err := c.do(ctx, http.MethodPost, "/dirs/"+escape(path), nil)
	if err != nil {
		return err
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return mapErr(resp)
	}
	return nil
}

// List implements cloud.Interface.
func (c *Client) List(ctx context.Context, path string) ([]cloud.Entry, error) {
	if path != "" {
		if err := cloud.ValidatePath(path); err != nil {
			return nil, err
		}
	}
	resp, done, err := c.do(ctx, http.MethodGet, "/list/"+escape(path), nil)
	if err != nil {
		return nil, err
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, mapErr(resp)
	}
	var entries []cloud.Entry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("cloudhttp: decoding list: %w", ctx.Err())
		}
		return nil, fmt.Errorf("cloudhttp: decoding list: %v: %w", err, cloud.ErrTransient)
	}
	return entries, nil
}

// Delete implements cloud.Interface.
func (c *Client) Delete(ctx context.Context, path string) error {
	if err := cloud.ValidatePath(path); err != nil {
		return err
	}
	resp, done, err := c.do(ctx, http.MethodDelete, "/files/"+escape(path), nil)
	if err != nil {
		return err
	}
	defer done()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return mapErr(resp)
	}
	return nil
}
