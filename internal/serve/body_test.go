package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"dotprov/internal/online"
)

// TestReadBody: both routes that read a body through readBody — the binary
// observe and a JSON route — accept a body of declared length and one of
// unknown (chunked) length alike, refuse one past maxBodyBytes with 400 and
// the text they have always answered, and refuse with 400 a body that ends
// before its declared length. A body that declares far more than it has
// sent is not allocated up front.
func TestReadBody(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if status := post(t, ts, "/v1/observe", ObserveRequest{Stream: "rb", Workload: oltpObserveSpec(1, 0), Box: "box1", SLA: 0.25}, nil); status != http.StatusOK {
		t.Fatalf("define: status=%d", status)
	}
	advise, err := json.Marshal(AdviseRequest{Workload: testWorkload(), Box: "box1", SLA: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct {
		name, path, ctype string
		body              []byte
		ok                int
	}{
		{"json", "/v1/advise", "application/json", advise, http.StatusOK},
		{"frames", "/v1/observe?stream=rb", online.ContentTypeFrames,
			online.EncodeFrames([]online.Frame{frameFromSpec(oltpObserveSpec(1, 0))}), http.StatusAccepted},
	}
	// A declared length is read into one buffer of exactly that size.
	if got, err := readBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/", bytes.NewReader(advise))); err != nil ||
		!bytes.Equal(got, advise) || cap(got) != len(advise) {
		t.Fatalf("readBody of a declared %d bytes: %d bytes in a buffer of %d (%v)", len(advise), len(got), cap(got), err)
	}
	// A client that declares the whole cap, sends a few bytes and stalls
	// holds no buffer of its declared size while it stalls.
	stalled := &stallingBody{head: []byte("0123456789abcdef"), stalled: make(chan struct{}), resume: make(chan struct{})}
	req := httptest.NewRequest("POST", "/", stalled)
	req.ContentLength = maxBodyBytes
	var before, during runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error)
	go func() { _, err := readBody(httptest.NewRecorder(), req); done <- err }()
	<-stalled.stalled
	runtime.ReadMemStats(&during)
	close(stalled.resume)
	if err := <-done; err == nil {
		t.Fatal("readBody of a body that ends 16 bytes into a declared maxBodyBytes: no error")
	}
	if grown := during.TotalAlloc - before.TotalAlloc; grown >= maxBodyBytes/2 {
		t.Fatalf("a stalled body that declared %d bytes and sent 16 cost %d bytes before it sent more", maxBodyBytes, grown)
	}
	over := make([]byte, maxBodyBytes+1)
	const tooLarge = "reading request body: http: request body too large"
	for _, rt := range routes {
		for _, c := range []struct {
			name    string
			body    []byte
			chunked bool
			status  int
			text    string
		}{
			{"declared", rt.body, false, rt.ok, ""},
			{"chunked", rt.body, true, rt.ok, ""},
			{"declared over the cap", over, false, http.StatusBadRequest, tooLarge},
			{"chunked over the cap", over, true, http.StatusBadRequest, tooLarge},
		} {
			req, err := http.NewRequest("POST", ts.URL+rt.path, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", rt.ctype)
			if c.chunked {
				req.ContentLength, req.TransferEncoding = -1, []string{"chunked"}
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("%s, %s: %v", rt.name, c.name, err)
			}
			status, text := envelope(t, resp)
			if status != c.status || text != c.text {
				t.Fatalf("%s, %s: %d %q, want %d %q", rt.name, c.name, status, text, c.status, c.text)
			}
		}
		status, text := postShort(t, ts, rt.path, rt.ctype, rt.body)
		if status != http.StatusBadRequest || !strings.HasPrefix(text, "reading request body: ") {
			t.Fatalf("%s, body shorter than declared: %d %q, want 400 reading request body", rt.name, status, text)
		}
	}
}

// stallingBody yields head, then blocks a read (closing stalled) until
// resume is closed and ends early with io.ErrUnexpectedEOF.
type stallingBody struct {
	head            []byte
	stalled, resume chan struct{}
}

func (b *stallingBody) Read(p []byte) (int, error) {
	if len(b.head) > 0 {
		n := copy(p, b.head)
		b.head = b.head[n:]
		return n, nil
	}
	close(b.stalled)
	<-b.resume
	return 0, io.ErrUnexpectedEOF
}

// envelope reads a response's status and, when it failed, its error text.
func envelope(t *testing.T, resp *http.Response) (int, string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode < 400 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, ""
	}
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, e.Error
}

// postShort sends a request over a raw connection that declares 16 bytes
// more than it sends, then half-closes, and reads the answer.
func postShort(t *testing.T, ts *httptest.Server, path, ctype string, body []byte) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", path, ctype, len(body)+16)
	if _, err := conn.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	return envelope(t, resp)
}
