package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"dotprov/internal/serve"
)

// liveServer is an in-process serve.Server behind a real loopback socket,
// with the keep-alive client the workload's goroutines share.
type liveServer struct {
	srv     *serve.Server
	handler http.Handler
	httpSrv *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
}

// serverConfig is the benchmark's fixed server shape: search width and
// shard ring at the machine's core count, room for eight concurrent
// optimizations.
func serverConfig(nproc, maxStreams int) serve.Config {
	return serve.Config{MaxConcurrent: 8, Workers: nproc, Shards: nproc, MaxStreams: maxStreams}
}

// startServer builds the server, listens on a free loopback port and opens
// one keep-alive connection per client by probing /v1/healthz.
func startServer(cfg serve.Config, clients int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: serve.New(cfg), served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	ls.handler = ls.srv.Handler()
	ls.httpSrv = &http.Server{Handler: ls.handler}
	go func() {
		defer close(ls.served)
		_ = ls.httpSrv.Serve(ln) // returns ErrServerClosed on stop
	}()
	ls.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
	}
	if _, err := ls.health(); err != nil {
		ls.stop()
		return nil, err
	}
	return ls, nil
}

// stop closes the listener, the connections and the server, and waits for
// the serving goroutine; it returns how long Server.Close took.
func (ls *liveServer) stop() (time.Duration, error) {
	if ls == nil || ls.httpSrv == nil {
		return 0, nil
	}
	ls.client.CloseIdleConnections()
	_ = ls.httpSrv.Close()
	<-ls.served
	ls.httpSrv = nil
	t0 := time.Now()
	err := ls.srv.Close()
	return time.Since(t0), err
}

// post sends one request over the socket and returns the status, the whole
// body, and the socket-to-socket time.
func (ls *liveServer) post(path, contentType string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	return ls.do(req)
}

// get is post for GET routes.
func (ls *liveServer) get(path string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, ls.base+path, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	return ls.do(req)
}

func (ls *liveServer) do(req *http.Request) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(t0), err
}

// health fetches /v1/healthz over the socket.
func (ls *liveServer) health() (serve.HealthResponse, error) {
	var h serve.HealthResponse
	status, body, _, err := ls.get("/v1/healthz")
	if err != nil {
		return h, err
	}
	if status != http.StatusOK {
		return h, fmt.Errorf("healthz answered %d", status)
	}
	return h, json.Unmarshal(body, &h)
}

// waitDrained polls healthz until no admitted frame is left unfolded.
func (ls *liveServer) waitDrained(patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		h, err := ls.health()
		if err != nil {
			return err
		}
		if h.Queued == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d frames still queued after %v", h.Queued, patience)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// directRequest builds a request and a response recorder for calling the
// handler with no socket in between — the traced replay's serve.handler.
func directRequest(method, path, contentType string, body []byte) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return req, httptest.NewRecorder()
}
