// Command mediatord runs the trusted mediator of Section III-B over TCP —
// standalone, or as one shard of a horizontally sharded tier. Its digest
// oracle is seeded from a registry directory: every file in the directory
// named <objectID>.bin contributes that object's trusted block digests.
//
//	mediatord -listen 127.0.0.1:7100 -registry ./content -block 65536
//
// Sharded tier: run one process per shard, each told its position and the
// full member list (same order everywhere; "-" marks this process's own
// entry, substituted with -listen):
//
//	mediatord -listen 127.0.0.1:7100 -shard 0/2 -shardmap -,127.0.0.1:7101 -registry ./content
//	mediatord -listen 127.0.0.1:7101 -shard 1/2 -shardmap 127.0.0.1:7100,- -registry ./content
//
// Each shard serves only its slice of the object space, partitioned by
// consistent hashing, and refuses requests for the rest. The member list is
// the whole topology: addresses are fixed at start, and a restarted process
// comes back on its own -listen, so clients are given the same list. Every
// shard of a tier of more than one must therefore listen on a concrete port.
//
// With -data the shard keeps a write-ahead log of escrow deposits and
// cheater flags under the given directory and replays it at startup, so a
// restarted process forgets neither in-flight escrow nor detection history:
//
//	mediatord -listen 127.0.0.1:7100 -registry ./content -data ./medstate
//
// The mediator serves until SIGINT/SIGTERM (closing gracefully: open
// connections are torn down and their serve goroutines joined), or for
// -duration if one is given.
package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"barter/internal/catalog"
	"barter/internal/mediator"
	"barter/internal/transport"
)

// errUsage signals a flag-parsing failure whose specifics the FlagSet has
// already printed to stderr.
var errUsage = errors.New("invalid arguments")

// notifySignals is swapped by tests to inject signals without raising them
// process-wide.
var notifySignals = func(ch chan<- os.Signal) {
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mediatord:", err)
		os.Exit(1)
	}
}

// parseShard parses "i/N" into a shard position.
func parseShard(s string) (index, count int, err error) {
	idx, rest, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard wants i/N, got %q", s)
	}
	index, err = strconv.Atoi(idx)
	if err != nil {
		return 0, 0, fmt.Errorf("-shard index %q: %w", idx, err)
	}
	count, err = strconv.Atoi(rest)
	if err != nil {
		return 0, 0, fmt.Errorf("-shard count %q: %w", rest, err)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-shard %q out of range", s)
	}
	return index, count, nil
}

// loadRegistry digests every <objectID>.bin file in dir at the given block
// size; other files are ignored.
func loadRegistry(dir string, block int) (map[catalog.ObjectID][][32]byte, error) {
	if block <= 0 {
		return nil, fmt.Errorf("block size must be positive, got %d", block)
	}
	digests := make(map[catalog.ObjectID][][32]byte)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".bin") {
			continue
		}
		objID, err := strconv.Atoi(strings.TrimSuffix(name, ".bin"))
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var digs [][32]byte
		for off := 0; off < len(data); off += block {
			end := min(off+block, len(data))
			digs = append(digs, sha256.Sum256(data[off:end]))
		}
		digests[catalog.ObjectID(objID)] = digs
	}
	return digests, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mediatord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:7100", "listen address")
		registry = fs.String("registry", "", "directory of <objectID>.bin content files")
		block    = fs.Int("block", 64<<10, "block size in bytes (must match the peers')")
		duration = fs.Duration("duration", 0, "exit after this long (0 = run until interrupted)")
		shard    = fs.String("shard", "", `shard position "i/N" within a mediator tier (empty = standalone)`)
		shardmap = fs.String("shardmap", "", `comma-separated member addresses in index order; "-" marks this process (required with -shard when N > 1)`)
		dataDir  = fs.String("data", "", "write-ahead-log directory: escrow deposits and flags replay across restarts (empty = in-memory only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *registry == "" {
		return fmt.Errorf("-registry is required (the mediator needs a trusted digest source)")
	}

	var opts mediator.ShardOpts
	opts.DataDir = *dataDir
	if *shard != "" {
		index, count, err := parseShard(*shard)
		if err != nil {
			return err
		}
		opts.Index, opts.Count = index, count
		if count > 1 {
			members := strings.Split(*shardmap, ",")
			if len(members) != count {
				return fmt.Errorf("-shardmap names %d members, -shard says %d", len(members), count)
			}
			for i, m := range members {
				if m == "-" {
					members[i] = *listen
				}
			}
			if members[index] != *listen {
				return fmt.Errorf("-shardmap entry %d is %q, but this process listens on %q", index, members[index], *listen)
			}
			// No sibling's -shardmap can name a port chosen at bind time.
			if _, port, err := net.SplitHostPort(*listen); err != nil || port == "" || port == "0" {
				return fmt.Errorf("-listen %q: a shard of a %d-shard tier must listen on a concrete port", *listen, count)
			}
			opts.Map = func() []string { return members }
		}
	}

	digests, err := loadRegistry(*registry, *block)
	if err != nil {
		return err
	}
	for objID, digs := range digests {
		fmt.Fprintf(stdout, "registered object %d: %d blocks\n", objID, len(digs))
	}

	oracle := func(o catalog.ObjectID) ([][32]byte, bool) {
		d, ok := digests[o]
		return d, ok
	}
	med, err := mediator.NewShard(transport.TCP{}, *listen, oracle, opts)
	if err != nil {
		return err
	}
	defer med.Close()
	if opts.Count > 1 {
		fmt.Fprintf(stdout, "mediator shard %d/%d listening on %s with %d registered objects\n",
			opts.Index, opts.Count, med.Addr(), len(digests))
	} else {
		fmt.Fprintf(stdout, "mediator listening on %s with %d registered objects\n", med.Addr(), len(digests))
	}

	sigs := make(chan os.Signal, 1)
	notifySignals(sigs)
	var expired <-chan time.Time
	if *duration > 0 {
		t := time.NewTimer(*duration)
		defer t.Stop()
		expired = t.C
	}
	select {
	case sig := <-sigs:
		// Graceful: the deferred Close tears down open connections and
		// joins every serve goroutine instead of dying mid-audit.
		fmt.Fprintf(stdout, "received %v; shutting down\n", sig)
	case <-expired:
	}
	return nil
}
