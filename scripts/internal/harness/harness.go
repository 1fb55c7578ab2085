// Package harness is what the process-level harnesses (scripts/crashtest,
// scripts/fleetload) share: one dotserve child process under test — started
// on a free port, killed or terminated, its stderr kept for a race scan —
// and the HTTP exchanges the harnesses make with it.
package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"dotprov/internal/online"
	"dotprov/internal/serve"
)

// Server is one dotserve process under test. done closes after the process
// exits (waitErr then holds the exec.Wait result), so Kill and Terminate
// are safely re-enterable — a phase defers a Kill on top of its explicit
// shutdown. The child's stderr is mirrored to ours and kept, so SawRace can
// scan it after a clean-looking exit.
type Server struct {
	cmd     *exec.Cmd
	base    string
	done    chan struct{}
	waitErr error
	errMu   sync.Mutex
	errBuf  bytes.Buffer
}

// stderrTee is the child's stderr: retained in the Server, mirrored to ours.
type stderrTee struct{ s *Server }

// Write appends to the retained buffer and mirrors to os.Stderr.
func (w stderrTee) Write(p []byte) (int, error) {
	w.s.errMu.Lock()
	w.s.errBuf.Write(p)
	w.s.errMu.Unlock()
	return os.Stderr.Write(p)
}

// Start launches the binary on a free port and waits for healthz. A -race
// build on a loaded CI runner can take a while to come up, hence the
// half-minute of patience.
func Start(bin string, args ...string) (*Server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &Server{base: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout = os.Stderr
	s.cmd.Stderr = stderrTee{s}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.waitErr = s.cmd.Wait(); close(s.done) }()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("dotserve exited during startup: %v", s.waitErr)
		default:
		}
		if status, _ := s.Get("/v1/healthz"); status == http.StatusOK {
			return s, nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	s.Kill()
	return nil, fmt.Errorf("dotserve did not answer healthz within 30s")
}

// Kill SIGKILLs the process — the crash under test — and waits for it to
// be gone. Idempotent.
func (s *Server) Kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// Terminate SIGTERMs the process and waits for the graceful shutdown (drain
// + final snapshot) to complete; a -race build that saw a race exits
// non-zero here.
func (s *Server) Terminate() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.done:
		if s.waitErr != nil {
			return fmt.Errorf("graceful shutdown: %w", s.waitErr)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.Kill()
		return fmt.Errorf("graceful shutdown timed out")
	}
}

// SawRace reports whether the race detector wrote a report to the child's
// stderr.
func (s *Server) SawRace() bool {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return strings.Contains(s.errBuf.String(), "DATA RACE")
}

// httpc bounds every exchange: a wedged server must fail a phase, not hang
// the harness.
var httpc = &http.Client{Timeout: 30 * time.Second}

// Get fetches a path; a transport error reads as status 0.
func (s *Server) Get(path string) (int, []byte) {
	resp, err := httpc.Get(s.base + path)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// Health fetches /v1/healthz.
func (s *Server) Health() (serve.HealthResponse, error) {
	var h serve.HealthResponse
	status, body := s.Get("/v1/healthz")
	if status != http.StatusOK {
		return h, fmt.Errorf("healthz = %d", status)
	}
	return h, json.Unmarshal(body, &h)
}

// WaitHealth polls healthz until cond holds or patience runs out.
func (s *Server) WaitHealth(cond func(serve.HealthResponse) bool, what string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for time.Now().Before(deadline) {
		if h, err := s.Health(); err == nil && cond(h) {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	h, _ := s.Health()
	return fmt.Errorf("timed out waiting for %s (health: %+v)", what, h)
}

// PostJSON posts req as JSON and returns the status and body. Transport
// errors are errors; HTTP refusals are statuses the caller decides about.
func (s *Server) PostJSON(path string, req any) (int, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := httpc.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b, nil
}

// PostFrames ships one binary observation batch to a stream. Transport
// errors are errors; HTTP refusals (429, 503) are statuses the caller
// decides about.
func (s *Server) PostFrames(stream string, batch []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/observe?stream="+stream, bytes.NewReader(batch))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", online.ContentTypeFrames)
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
