package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"barter/internal/node"
	"barter/internal/transport"
)

func TestBadFlagErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-bogus"}, &out, &errOut); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestParseDirectory(t *testing.T) {
	dir, err := parseDirectory("1=127.0.0.1:7001,2=127.0.0.1:7002")
	if err != nil {
		t.Fatal(err)
	}
	if dir[1] != "127.0.0.1:7001" || dir[2] != "127.0.0.1:7002" {
		t.Fatalf("parsed %v", dir)
	}
	if _, err := parseDirectory("nonsense"); err == nil {
		t.Fatal("missing '=' accepted")
	}
	if _, err := parseDirectory("x=addr"); err == nil {
		t.Fatal("non-numeric peer id accepted")
	}
}

func TestBadEntriesError(t *testing.T) {
	cases := [][]string{
		{"-peers", "broken"},
		{"-serve", "broken"},
		{"-serve", "x=/nope"},
		{"-serve", "1=/does/not/exist"},
		{"-fetch", "broken"},
		{"-fetch", "x=1"},
		{"-fetch", "1=x"},
		{"-fetch", "1=99"}, // provider not in directory
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if err := run(args, &out, &errOut); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestServeOnlyDuration: a serve-only node with -duration exits cleanly.
func TestServeOnlyDuration(t *testing.T) {
	blob := filepath.Join(t.TempDir(), "obj.bin")
	if err := os.WriteFile(blob, []byte("hello exchnode"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	err := run([]string{
		"-id", "1", "-listen", "127.0.0.1:0",
		"-serve", "100=" + blob,
		"-duration", "50ms",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("serve-only run: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "serving object 100") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestFetchOverTCP drives the full fetch path: a library node serves over
// real sockets, and exchnode's run() downloads from it and exits.
func TestFetchOverTCP(t *testing.T) {
	server, err := node.New(node.Config{
		ID:        1,
		Addr:      "127.0.0.1:0",
		Transport: transport.TCP{},
		Share:     true,
		BlockSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	data := make([]byte, 10_000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	server.AddObject(100, data)

	var out, errOut strings.Builder
	err = run([]string{
		"-id", "2", "-listen", "127.0.0.1:0",
		"-peers", "1=" + server.Addr(),
		"-fetch", "100=1",
		"-timeout", "30s",
		"-deadline", "30s",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("fetch run: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "fetched object 100 (10000 bytes)") {
		t.Fatalf("output:\n%s", out.String())
	}
	if server.Stats().BlocksSent == 0 {
		t.Fatal("server sent no blocks")
	}
}
