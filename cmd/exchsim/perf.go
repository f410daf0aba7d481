package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"barter/internal/experiment"
)

// perfTimer scopes the -perf report: the wall clock and the allocator are
// read before the runs, and the report adds the runs' own summed counts.
type perfTimer struct {
	start time.Time
	mem   runtime.MemStats
}

func startPerf() *perfTimer {
	t := &perfTimer{start: time.Now()}
	runtime.ReadMemStats(&t.mem)
	return t
}

// report renders a human-readable digest of the runs since startPerf:
// throughput (events/sec of wall time), search effort, and allocation load.
func (t *perfTimer) report(c experiment.Counts) string {
	wall := time.Since(t.start).Seconds()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	allocBytes := mem.TotalAlloc - t.mem.TotalAlloc
	allocObjs := mem.Mallocs - t.mem.Mallocs

	var b strings.Builder
	fmt.Fprintf(&b, "perf: %d run(s) in %.2fs wall\n", c.Runs, wall)
	fmt.Fprintf(&b, "perf: events     %d (%.0f events/s)\n", c.Events, rate(c.Events, wall))
	if c.Events > 0 {
		fmt.Fprintf(&b, "perf: eventq     %d heap events, %d blocks counted (%.1f%%)\n",
			c.HeapEvents, c.Blocks, 100*float64(c.Blocks)/float64(c.Events))
	}
	fmt.Fprintf(&b, "perf: searches   %d (%d nodes visited, %d want probes, %d rings started)\n",
		c.Searches, c.NodesVisited, c.WantsChecked, c.RingsStarted)
	fmt.Fprintf(&b, "perf: alloc      %d objects, %s", allocObjs, bytesHuman(allocBytes))
	if c.Events > 0 {
		fmt.Fprintf(&b, " (%.2f objects/event)", float64(allocObjs)/float64(c.Events))
	}
	b.WriteByte('\n')
	return b.String()
}

func rate(n uint64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}

func bytesHuman(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
