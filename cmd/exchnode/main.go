// Command exchnode runs a live exchange peer over TCP.
//
// A tiny static directory maps peer ids to addresses so small hand-built
// networks can form rings (the paper treats lookup as an external service):
//
//	exchnode -id 1 -listen 127.0.0.1:7001 -share \
//	    -peers 2=127.0.0.1:7002,3=127.0.0.1:7003 \
//	    -serve 100=./alice.bin -fetch 200=2 -timeout 60s
//
// serves object 100 from a local file and downloads object 200 from peer 2,
// exiting when every fetch completes. Without -fetch the node serves until
// interrupted, or for -duration if one is given. -deadline arms per-I/O
// read/write deadlines so a hung peer cannot wedge a connection forever.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/node"
	"barter/internal/transport"
)

// errUsage signals a flag-parsing failure whose specifics the FlagSet has
// already printed to stderr.
var errUsage = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "exchnode:", err)
		os.Exit(1)
	}
}

// parseDirectory decodes an "id=addr,id=addr" peer directory.
func parseDirectory(spec string) (map[core.PeerID]string, error) {
	dir := make(map[core.PeerID]string)
	if spec == "" {
		return dir, nil
	}
	for _, ent := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("bad -peers entry %q", ent)
		}
		pid, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %w", k, err)
		}
		dir[core.PeerID(pid)] = v
	}
	return dir, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("exchnode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id       = fs.Int("id", 1, "peer id")
		listen   = fs.String("listen", "127.0.0.1:0", "listen address")
		share    = fs.Bool("share", true, "serve content (false = free-ride)")
		peers    = fs.String("peers", "", "directory: id=addr,id=addr,...")
		serve    = fs.String("serve", "", "objects to serve: objID=path,...")
		fetch    = fs.String("fetch", "", "objects to fetch: objID=peerID,...")
		slots    = fs.Int("slots", 4, "upload slots")
		block    = fs.Int("block", 64<<10, "block size in bytes")
		timeout  = fs.Duration("timeout", 120*time.Second, "per-fetch timeout")
		duration = fs.Duration("duration", 0, "serve-only mode: exit after this long (0 = run until interrupted)")
		deadline = fs.Duration("deadline", 0, "per-I/O read/write deadline on TCP connections (0 = none)")
		verbose  = fs.Bool("v", false, "log protocol activity")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	dir, err := parseDirectory(*peers)
	if err != nil {
		return err
	}

	cfg := node.Config{
		ID:          core.PeerID(*id),
		Addr:        *listen,
		Transport:   transport.TCP{ReadTimeout: *deadline, WriteTimeout: *deadline},
		Share:       *share,
		UploadSlots: *slots,
		BlockSize:   *block,
		Lookup: func(p core.PeerID) (string, bool) {
			a, ok := dir[p]
			return a, ok
		},
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	n, err := node.New(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	fmt.Fprintf(stdout, "peer %d listening on %s (share=%v)\n", *id, n.Addr(), *share)

	if *serve != "" {
		for _, ent := range strings.Split(*serve, ",") {
			k, path, ok := strings.Cut(ent, "=")
			if !ok {
				return fmt.Errorf("bad -serve entry %q", ent)
			}
			objID, err := strconv.Atoi(k)
			if err != nil {
				return fmt.Errorf("bad object id %q: %w", k, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			n.AddObject(catalog.ObjectID(objID), data)
			fmt.Fprintf(stdout, "serving object %d (%d bytes) from %s\n", objID, len(data), path)
		}
	}

	if *fetch == "" {
		// Serve-only mode: run until interrupted, or for -duration.
		if *duration > 0 {
			time.Sleep(*duration)
			return nil
		}
		select {}
	}
	type pending struct {
		obj catalog.ObjectID
		ch  <-chan error
	}
	var fetches []pending
	for _, ent := range strings.Split(*fetch, ",") {
		k, v, ok := strings.Cut(ent, "=")
		if !ok {
			return fmt.Errorf("bad -fetch entry %q", ent)
		}
		objID, err := strconv.Atoi(k)
		if err != nil {
			return fmt.Errorf("bad object id %q: %w", k, err)
		}
		pid, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad provider id %q: %w", v, err)
		}
		addr, ok := dir[core.PeerID(pid)]
		if !ok {
			return fmt.Errorf("provider %d not in -peers directory", pid)
		}
		ch := n.Download(catalog.ObjectID(objID), map[core.PeerID]string{core.PeerID(pid): addr})
		fetches = append(fetches, pending{obj: catalog.ObjectID(objID), ch: ch})
	}
	for _, f := range fetches {
		if err := node.WaitFor(f.ch, *timeout); err != nil {
			return fmt.Errorf("fetch %d: %w", f.obj, err)
		}
		fmt.Fprintf(stdout, "fetched object %d (%d bytes)\n", f.obj, len(n.Object(f.obj)))
	}
	st := n.Stats()
	fmt.Fprintf(stdout, "done: rings joined %d, exchange blocks sent %d, blocks received %d\n",
		st.RingsJoined, st.ExchangeBlocksSent, st.BlocksReceived)
	return nil
}
