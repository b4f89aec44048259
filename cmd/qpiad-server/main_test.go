package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"qpiad/internal/core"
	"qpiad/internal/datagen"
	"qpiad/internal/relation"
)

func TestBuildMediatorGenerated(t *testing.T) {
	med, err := buildMediator("", 3000, 1, 0.10, 0.10, 0, core.Config{Alpha: 0, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if names := med.SourceNames(); len(names) != 1 || names[0] != "cars" {
		t.Errorf("sources = %v", names)
	}
	rs, err := med.QuerySelectWithCtx(context.Background(), med.Config(), "cars", relation.NewQuery("cars",
		relation.Eq("body_style", relation.String("Convt"))))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Certain) == 0 {
		t.Error("no certain answers through the built mediator")
	}
}

func TestBuildMediatorCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cars.csv")
	gd := datagen.Cars(2000, 2)
	ed, _ := datagen.MakeIncomplete(gd, 0.10, 3)
	if err := ed.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	med, err := buildMediator(path, 0, 4, 0, 0.10, 0, core.Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if names := med.SourceNames(); len(names) != 1 || names[0] != "db" {
		t.Errorf("sources = %v", names)
	}
}

func TestBuildMediatorErrors(t *testing.T) {
	if _, err := buildMediator("/nonexistent.csv", 0, 1, 0, 0.1, 0, core.Config{}); err == nil {
		t.Error("missing CSV should error")
	}
	if _, err := buildMediator("", 100, 1, 0.1, 0.000001, 0, core.Config{}); err == nil {
		t.Error("degenerate sample fraction should error")
	}
}

func TestAdmissionOptions(t *testing.T) {
	if opts := admissionOptions(0, 10, time.Second, time.Second); opts != nil {
		t.Errorf("max-inflight 0 must leave admission off, got %d options", len(opts))
	}
	if opts := admissionOptions(8, -1, 0, 0); len(opts) != 1 {
		t.Errorf("max-inflight 8 must arm admission, got %d options", len(opts))
	}
}

// TestServeGracefulDrain exercises the real signal-driven shutdown path:
// cancel the serve context while a request is in flight and assert the
// request completes, new connections are refused, and serve returns nil.
func TestServeGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			entered <- struct{}{}
			<-release
			fmt.Fprintln(w, "done")
		}),
		ReadHeaderTimeout: time.Second,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(ctx, srv, nil, ln, 5*time.Second, 0) }()

	respDone := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			respDone <- err
			return
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err != nil {
			respDone <- err
			return
		}
		if resp.StatusCode != http.StatusOK {
			respDone <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		respDone <- nil
	}()
	<-entered
	cancel() // the SIGINT stand-in
	// Give the drain a moment to close the listener, then finish the
	// in-flight request.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-respDone; err != nil {
		t.Errorf("in-flight request did not survive the drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned %v after a clean drain", err)
	}
}

// TestServeDrainDeadline: a handler that never finishes must not hang
// shutdown past the drain budget.
func TestServeDrainDeadline(t *testing.T) {
	stuck := make(chan struct{})
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-stuck
		}),
		ReadHeaderTimeout: time.Second,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- serve(ctx, srv, nil, ln, 100*time.Millisecond, 0) }()
	go http.Get("http://" + ln.Addr().String() + "/")
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-serveDone:
		if err == nil {
			t.Error("drain with a stuck handler should report the deadline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve hung past the drain deadline")
	}
	close(stuck)
}
