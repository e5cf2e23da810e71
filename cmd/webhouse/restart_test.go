package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"incxml/internal/serve"
)

// syncBuffer is a goroutine-safe output sink for serveUntil.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRe = regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)

// startServe runs serveUntil on an ephemeral port and waits for the listen
// banner; the returned stop function triggers the graceful drain and waits
// for exit.
func startServe(t *testing.T, args []string) (base string, out *syncBuffer, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out = &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- serveUntil(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("server never announced its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return base, out, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(15 * time.Second):
			return context.DeadlineExceeded
		}
	}
}

// httpPost sends an answer request for the catalog source to url as JSON.
func httpPost(t *testing.T, url, query string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(jsonBody(t, serve.AnswerRequest{Query: query})))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestServeCommandRestartRoundTrip: the real command, started with
// -data-dir, drains cleanly on shutdown (exit nil = exit code 0) and a
// second invocation warm-starts from the same directory, announces the
// recovery in its banner, and serves the same certified local answer
// byte for byte.
func TestServeCommandRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-timeout", "5s"}

	base, _, stop := startServe(t, args)
	if code, body := httpPost(t, base+"/explore", query4); code != http.StatusOK {
		t.Fatalf("/explore: %d %s", code, body)
	}
	code, want := httpPost(t, base+"/local", query4)
	if code != http.StatusOK {
		t.Fatalf("/local: %d %s", code, want)
	}
	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}

	base2, out2, stop2 := startServe(t, args)
	if !strings.Contains(out2.String(), "warm start from") {
		t.Fatalf("second start has no warm-start banner:\n%s", out2.String())
	}
	code, got := httpPost(t, base2+"/local", query4)
	if code != http.StatusOK {
		t.Fatalf("restart /local: %d %s", code, got)
	}
	if got != want {
		t.Fatalf("local answer changed across restart:\n got: %s\nwant: %s", got, want)
	}
	if err := stop2(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if !strings.Contains(out2.String(), "drained cleanly") {
		t.Fatalf("no clean-drain banner:\n%s", out2.String())
	}
}

const priceQuery = `catalog
  product
    name
    price {< 200}
`

// TestServeCommandExploreAfterRestart: a session that keeps acquiring
// knowledge after a warm restart must be indistinguishable from one that
// never restarted. A restarted server explores a *new* query and serves
// its certified local answer; a fresh reference server (separate data
// dir, same flags) runs the identical full session without any restart.
// The envelopes must match byte for byte — fingerprint included. This
// covers ROADMAP item 6: before the fingerprint became a pure function of
// the answer tree, interning history (which differed between the
// warm-started and the never-restarted process) leaked into the
// Completeness.Fingerprint field.
func TestServeCommandExploreAfterRestart(t *testing.T) {
	session := func(base string) {
		for _, path := range []string{"/explore", "/local"} {
			if code, body := httpPost(t, base+path, query4); code != http.StatusOK {
				t.Fatalf("%s: %d %s", path, code, body)
			}
		}
	}
	exploreAndLocal := func(base string) string {
		if code, body := httpPost(t, base+"/explore", priceQuery); code != http.StatusOK {
			t.Fatalf("/explore (price): %d %s", code, body)
		}
		code, body := httpPost(t, base+"/local", priceQuery)
		if code != http.StatusOK {
			t.Fatalf("/local (price): %d %s", code, body)
		}
		return body
	}

	// Server under test: acquire, restart, then keep acquiring.
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-timeout", "5s"}
	base, _, stop := startServe(t, args)
	session(base)
	if err := stop(); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	base2, out2, stop2 := startServe(t, args)
	if !strings.Contains(out2.String(), "warm start from") {
		t.Fatalf("second start has no warm-start banner:\n%s", out2.String())
	}
	got := exploreAndLocal(base2)
	if err := stop2(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	// Reference server: same session, no restart, fresh data dir.
	refArgs := []string{"-data-dir", t.TempDir(), "-timeout", "5s"}
	refBase, _, refStop := startServe(t, refArgs)
	session(refBase)
	want := exploreAndLocal(refBase)
	if err := refStop(); err != nil {
		t.Fatalf("reference shutdown: %v", err)
	}

	if got != want {
		t.Fatalf("explore-after-restart answer diverged from never-restarted session:\n got: %s\nwant: %s", got, want)
	}
}

// TestServeCommandCutsTrickledHeaders: the real command bounds header reads
// by its -timeout, so a client that never finishes its headers is
// disconnected instead of holding a connection open indefinitely.
func TestServeCommandCutsTrickledHeaders(t *testing.T) {
	base, _, stop := startServe(t, []string{"-timeout", "200ms"})
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /local HTTP/1.1\r\nHost: trickle\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server still holds a header-trickling connection after %v", time.Since(start))
	}
}

// TestServeCommandClosesIdleKeepAlive: the real command bounds the idle
// wait between keep-alive requests by its -timeout, so a client that
// finishes one request and then goes quiet cannot pin the connection.
func TestServeCommandClosesIdleKeepAlive(t *testing.T) {
	base, _, stop := startServe(t, []string{"-timeout", "200ms"})
	defer func() {
		if err := stop(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := jsonBody(t, serve.AnswerRequest{Query: "catalog\n"})
	if _, err := fmt.Fprintf(conn, "POST /local HTTP/1.1\r\nHost: idle\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("/local on a keep-alive connection: status %d, close %v", resp.StatusCode, resp.Close)
	}
	// Send nothing more: the server must hang up on its own.
	_, err = io.ReadAll(br)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server still holds an idle keep-alive connection after %v", time.Since(start))
	}
}
