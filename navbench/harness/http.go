package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
)

// HTTP is the back-end that drives a running bionav-server.
type HTTP struct {
	Base   string // e.g. "http://127.0.0.1:8080"
	Client *http.Client
}

// Do implements Backend.
func (h *HTTP) Do(ctx context.Context, req Request) (Response, error) {
	var resp Response
	switch req.Op {
	case OpQuery:
		resp.State = &State{}
		return resp, h.call(ctx, http.MethodPost, "/api/query", map[string]string{"keywords": req.Keywords}, resp.State)
	case OpExpand, OpBacktrack, OpIgnore:
		resp.State = &State{}
		path := "/api/" + req.Op.String()
		return resp, h.call(ctx, http.MethodPost, path, map[string]any{"session": req.Session, "node": req.Node}, resp.State)
	case OpResults:
		var listing []json.RawMessage
		q := url.Values{"session": {req.Session}, "node": {strconv.Itoa(req.Node)}}
		err := h.call(ctx, http.MethodGet, "/api/results?"+q.Encode(), nil, &listing)
		resp.Listed = len(listing)
		return resp, err
	case OpIngest:
		var out struct {
			Epoch uint64 `json:"epoch"`
		}
		err := h.call(ctx, http.MethodPost, "/api/admin/ingest", map[string]any{"citations": req.Batch}, &out)
		resp.Epoch = out.Epoch
		return resp, err
	}
	return resp, fmt.Errorf("harness: unknown op %v", req.Op)
}

// Export fetches a session's exported action log.
func (h *HTTP) Export(ctx context.Context, session string) ([]json.RawMessage, error) {
	var out struct {
		Actions []json.RawMessage `json:"actions"`
	}
	err := h.call(ctx, http.MethodGet, "/api/export?"+url.Values{"session": {session}}.Encode(), nil, &out)
	return out.Actions, err
}

// Get fetches a non-API path (such as /metrics or /readyz) as raw bytes.
func (h *HTTP) Get(ctx context.Context, path string) ([]byte, error) {
	var raw rawBody
	err := h.call(ctx, http.MethodGet, path, nil, &raw)
	return raw, err
}

type rawBody []byte

func (h *HTTP) call(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("harness: encode %s: %w", path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, h.Base+path, rd)
	if err != nil {
		return fmt.Errorf("harness: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.Client.Do(req)
	if err != nil {
		return fmt.Errorf("harness: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("harness: %s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	if raw, ok := out.(*rawBody); ok {
		*raw = data
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("harness: %s %s: decode: %w", method, path, err)
	}
	return nil
}
