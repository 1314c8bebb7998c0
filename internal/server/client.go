package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"scrubjay/internal/obs"
	"scrubjay/internal/value"
)

// Client speaks the serving daemon's HTTP API using the same
// request/response structs the server serves. The CLI's client mode
// (scrubjay query -server) and the load driver (scrubjay load) are both
// built on it.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8372".
	BaseURL string
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
}

// HTTPError is a fully received non-2xx JSON answer. Status and the
// Retry-After header are preserved so callers can distinguish load
// shedding (429/503, retryable) from request errors.
type HTTPError struct {
	Status     int
	RetryAfter string
	Message    string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.Status, e.Message)
}

// Rejected reports whether the error is the server shedding load
// (overload or draining) rather than refusing the request itself.
func (e *HTTPError) Rejected() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// StreamBrokenError is a row stream that started (HTTP 200, header
// received) but ended without a trailer: the in-flight query was dropped.
type StreamBrokenError struct {
	Cause error
	// RowsRead counts rows received before the break.
	RowsRead int64
}

func (e *StreamBrokenError) Error() string {
	return fmt.Sprintf("server: stream broken after %d rows: %v", e.RowsRead, e.Cause)
}

func (e *StreamBrokenError) Unwrap() error { return e.Cause }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// post sends a JSON body and returns the response, converting any fully
// received non-2xx answer into *HTTPError.
func (c *Client) post(path string, reqBody any) (*http.Response, error) {
	data, err := json.Marshal(reqBody)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Post(c.url(path), "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var msg ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			return nil, fmt.Errorf("server: %d (unreadable error body: %v)", resp.StatusCode, err)
		}
		return nil, &HTTPError{
			Status:     resp.StatusCode,
			RetryAfter: resp.Header.Get("Retry-After"),
			Message:    msg.Error,
		}
	}
	return resp, nil
}

func (c *Client) postJSON(path string, reqBody, out any) error {
	resp, err := c.post(path, reqBody)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Plan runs the engine search only (POST /v1/plan).
func (c *Client) Plan(req QueryRequest) (PlanResponse, error) {
	var out PlanResponse
	err := c.postJSON("/v1/plan", req, &out)
	return out, err
}

// Query searches and executes (POST /v1/query), returning the full stream.
func (c *Client) Query(req QueryRequest) (StreamHeader, []value.Row, StreamTrailer, error) {
	resp, err := c.post("/v1/query", req)
	if err != nil {
		return StreamHeader{}, nil, StreamTrailer{}, err
	}
	return readRowStream(resp)
}

// Execute reproduces a stored plan (POST /v1/execute).
func (c *Client) Execute(req ExecuteRequest) (StreamHeader, []value.Row, StreamTrailer, error) {
	resp, err := c.post("/v1/execute", req)
	if err != nil {
		return StreamHeader{}, nil, StreamTrailer{}, err
	}
	return readRowStream(resp)
}

// Trace fetches the artifact for a recent query (GET /v1/trace/{id}).
func (c *Client) Trace(id string) (*obs.Artifact, error) {
	resp, err := c.httpClient().Get(c.url("/v1/trace/" + id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
			return nil, fmt.Errorf("server: %d (unreadable error body: %v)", resp.StatusCode, err)
		}
		return nil, &HTTPError{Status: resp.StatusCode, Message: msg.Error}
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.DecodeArtifact(data)
}

// Traces lists retained trace ids, newest first (GET /v1/trace).
func (c *Client) Traces() ([]string, error) {
	resp, err := c.httpClient().Get(c.url("/v1/trace"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: %d", resp.StatusCode)
	}
	var out TraceListResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.TraceIDs, nil
}

// Register installs a dataset (POST /v1/catalog/datasets).
func (c *Client) Register(req RegisterRequest) (DatasetInfo, error) {
	var out DatasetInfo
	err := c.postJSON("/v1/catalog/datasets", req, &out)
	return out, err
}

// Catalog lists the served datasets (GET /v1/catalog).
func (c *Client) Catalog() (CatalogResponse, error) {
	var out CatalogResponse
	resp, err := c.httpClient().Get(c.url("/v1/catalog"))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("server: %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// readRowStream consumes an NDJSON row stream. A stream that breaks after
// the 200 began returns *StreamBrokenError — the signal scrubjay load uses to
// count dropped in-flight queries.
func readRowStream(resp *http.Response) (StreamHeader, []value.Row, StreamTrailer, error) {
	defer resp.Body.Close()
	var header *StreamHeader
	var trailer *StreamTrailer
	var rows []value.Row
	broken := func(cause error) (StreamHeader, []value.Row, StreamTrailer, error) {
		h := StreamHeader{}
		if header != nil {
			h = *header
		}
		return h, rows, StreamTrailer{}, &StreamBrokenError{Cause: cause, RowsRead: int64(len(rows))}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return broken(fmt.Errorf("undecodable line: %w", err))
		}
		switch {
		case line.Header != nil:
			header = line.Header
		case line.Trailer != nil:
			trailer = line.Trailer
		case line.Row != nil:
			rows = append(rows, line.Row)
		}
	}
	if err := sc.Err(); err != nil {
		return broken(err)
	}
	if header == nil || trailer == nil {
		return broken(fmt.Errorf("stream ended without %s", map[bool]string{true: "header", false: "trailer"}[header == nil]))
	}
	if trailer.Error != "" {
		return *header, rows, *trailer, fmt.Errorf("server: %s", trailer.Error)
	}
	return *header, rows, *trailer, nil
}
