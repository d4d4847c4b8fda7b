package server

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"
)

// TestListenResolvesPort: Listen on ":0" must yield the real bound
// address — the contract cmd/ared's startup line (and the chaos
// harness's port discovery) relies on.
func TestListenResolvesPort(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownQuiet(t, srv)
	ln, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr, ok := ln.Addr().(*net.TCPAddr)
	if !ok || addr.Port == 0 {
		t.Fatalf("Listen did not resolve the port: %v", ln.Addr())
	}
}

// TestListenPortCollision: a port that is already bound must surface as
// an error from Listen (cmd/ared turns it into a non-zero exit), never
// as a daemon that silently serves nothing.
func TestListenPortCollision(t *testing.T) {
	squatter, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()

	srv, err := New(Config{Addr: squatter.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownQuiet(t, srv)
	ln, err := srv.Listen()
	if err == nil {
		ln.Close()
		t.Fatalf("Listen succeeded on the occupied port %s", squatter.Addr())
	}
	if !strings.Contains(err.Error(), squatter.Addr().String()) {
		t.Errorf("bind error %q does not name the contested address %s", err, squatter.Addr())
	}
}

// TestServeShutdownIgnoresUnusedConn: a connection that never carried a
// request (an HTTP client's pre-dialed spare) must not turn a signalled
// drain into an error. net/http's Shutdown only treats such a connection
// as idle once it is 5s old, so without care a grace period of that
// order expires on it and ared exits non-zero with nothing cut off.
func TestServeShutdownIgnoresUnusedConn(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0", ShutdownGrace: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	spare, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer spare.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept it
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after a clean drain = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its grace period")
	}
}

func shutdownQuiet(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}
