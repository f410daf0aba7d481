package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/protocol"
	"barter/internal/transport"
)

func TestBadFlagErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-bogus"}, &out, &errOut); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRegistryRequired(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(nil, &out, &errOut); err == nil {
		t.Fatal("missing -registry accepted")
	}
}

func TestRegistryMissingDirErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-registry", "/does/not/exist"}, &out, &errOut); err == nil {
		t.Fatal("nonexistent registry accepted")
	}
}

func TestLoadRegistry(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "7.bin"), make([]byte, 2500), 0o644); err != nil {
		t.Fatal(err)
	}
	// Ignored: wrong suffix, non-numeric name.
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "abc.bin"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	digests, err := loadRegistry(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(digests) != 1 {
		t.Fatalf("registered %d objects, want 1", len(digests))
	}
	if got := len(digests[7]); got != 3 { // 2500 bytes / 1000 per block
		t.Fatalf("object 7 has %d blocks, want 3", got)
	}
	if _, err := loadRegistry(dir, 0); err == nil {
		t.Fatal("zero block size accepted")
	}
}

// TestServeDuration boots a real mediator from a registry over TCP and
// exits after -duration.
func TestServeDuration(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "42.bin"), make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	err := run([]string{
		"-listen", "127.0.0.1:0",
		"-registry", dir,
		"-block", "1024",
		"-duration", "50ms",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "registered object 42: 4 blocks") {
		t.Fatalf("output:\n%s", got)
	}
	if !strings.Contains(got, "mediator listening on 127.0.0.1:") {
		t.Fatalf("output:\n%s", got)
	}
}

// registryDir builds a one-object registry for smoke runs.
func registryDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "1.bin"), make([]byte, 2048), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestGracefulSignalShutdown: a mediatord with no -duration must serve
// until SIGINT/SIGTERM and then exit cleanly through Close, not die
// mid-connection.
func TestGracefulSignalShutdown(t *testing.T) {
	sigs := make(chan chan<- os.Signal, 1)
	old := notifySignals
	notifySignals = func(ch chan<- os.Signal) { sigs <- ch }
	defer func() { notifySignals = old }()

	var out, errOut strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-registry", registryDir(t)}, &out, &errOut)
	}()
	select {
	case ch := <-sigs:
		ch <- os.Interrupt
	case <-time.After(5 * time.Second):
		t.Fatal("run never registered a signal handler")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGINT: %v\n%s", err, errOut.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not exit on SIGINT")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("no graceful-shutdown message:\n%s", out.String())
	}
}

// TestShardFlagParsing covers the i/N parser's edges.
func TestShardFlagParsing(t *testing.T) {
	if i, n, err := parseShard("2/4"); err != nil || i != 2 || n != 4 {
		t.Fatalf("parseShard(2/4) = %d, %d, %v", i, n, err)
	}
	for _, bad := range []string{"", "3", "4/4", "-1/4", "a/4", "1/b", "1/0"} {
		if _, _, err := parseShard(bad); err == nil {
			t.Fatalf("parseShard(%q) accepted", bad)
		}
	}
}

// TestShardModeSmoke boots one shard of a declared 2-shard tier over real
// TCP and lets -duration expire.
func TestShardModeSmoke(t *testing.T) {
	var out, errOut strings.Builder
	err := run([]string{
		"-listen", "127.0.0.1:7981",
		"-shard", "0/2",
		"-shardmap", "-,127.0.0.1:7982",
		"-registry", registryDir(t),
		"-block", "1024",
		"-duration", "50ms",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "mediator shard 0/2 listening on") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestShardMapValidation: a member list that disagrees with -shard, a self
// entry that contradicts -listen, or a ":0" listen that no sibling's list
// could name, must be refused.
func TestShardMapValidation(t *testing.T) {
	dir := registryDir(t)
	var out, errOut strings.Builder
	if err := run([]string{"-listen", "127.0.0.1:0", "-shard", "0/2", "-shardmap", "-", "-registry", dir}, &out, &errOut); err == nil {
		t.Fatal("short shardmap accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-shard", "0/2", "-shardmap", "127.0.0.1:9,127.0.0.1:10", "-registry", dir}, &out, &errOut); err == nil {
		t.Fatal("shardmap contradicting -listen accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-shard", "9/2", "-shardmap", "-,-", "-registry", dir}, &out, &errOut); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if err := run([]string{"-listen", "127.0.0.1:0", "-shard", "0/2", "-shardmap", "-,127.0.0.1:7993", "-registry", dir}, &out, &errOut); err == nil {
		t.Fatal("shard of a 2-shard tier on a port chosen at bind time accepted")
	}
}

// syncBuf is a concurrency-safe output sink for tests that read a running
// daemon's output.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// bootDaemon starts a mediatord in the background and waits for its bound
// address. The caller stops it by sending on the returned signal channel
// and then receiving from done.
func bootDaemon(t *testing.T, args []string, out *syncBuf, sigs chan chan<- os.Signal) (addr string, done chan error) {
	t.Helper()
	var errOut syncBuf
	done = make(chan error, 1)
	go func() { done <- run(args, out, &errOut) }()
	for i := 0; i < 250 && addr == ""; i++ {
		if m := strings.SplitN(out.String(), "listening on ", 2); len(m) == 2 {
			addr = strings.Fields(m[1])[0]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never printed a bound address:\n%s", out.String())
	}
	return addr, done
}

// TestRestartRecoversEscrow is the process-level durability smoke test: a
// mediatord run with -data escrows a key and is interrupted; a second
// process over the same directory must release that key to a verifying
// receiver with no re-deposit — the restart forgot nothing.
func TestRestartRecoversEscrow(t *testing.T) {
	sigs := make(chan chan<- os.Signal, 1)
	old := notifySignals
	notifySignals = func(ch chan<- os.Signal) { sigs <- ch }
	defer func() { notifySignals = old }()

	reg := registryDir(t) // object 1: 2048 zero bytes, one 64 KiB block
	data := t.TempDir()
	args := []string{"-listen", "127.0.0.1:0", "-registry", reg, "-data", data}

	stop := func(t *testing.T, done chan error) {
		t.Helper()
		select {
		case ch := <-sigs:
			ch <- os.Interrupt
		case <-time.After(5 * time.Second):
			t.Fatal("daemon never registered a signal handler")
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not exit on SIGINT")
		}
	}

	const sender, receiver core.PeerID = 2, 3
	const obj catalog.ObjectID = 1
	var key [16]byte
	copy(key[:], "restart-key-....")

	var out1 syncBuf
	addr, done := bootDaemon(t, args, &out1, sigs)
	cl, err := medclient.New(medclient.Config{Transport: transport.TCP{}, Seeds: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Deposit(77, sender, obj, key); err != nil {
		t.Fatalf("deposit: %v", err)
	}
	cl.Close()
	stop(t, done)

	var out2 syncBuf
	addr, done = bootDaemon(t, args, &out2, sigs)
	cl, err = medclient.New(medclient.Config{Transport: transport.TCP{}, Seeds: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sealed, err := mediator.Seal(key, sender, receiver, obj, 0, make([]byte, 2048))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Verify(77, receiver, sender, obj, []protocol.Block{{Object: obj, Index: 0, Payload: sealed}})
	if err != nil {
		t.Fatalf("verify against the restarted daemon: %v", err)
	}
	if got != key {
		t.Fatal("restarted daemon released the wrong key")
	}
	stop(t, done)
}
