package sim

import (
	"fmt"
	"math"
	"time"

	"barter/internal/metrics"
	"barter/internal/strategy"
)

// TypeNonExchange and friends label session classes in results, matching the
// paper's figure legends.
const (
	TypeNonExchange = "non-exchange"
	TypePairwise    = "pairwise"
)

// TypeLabel names a session class from its ring size (1 = non-exchange).
func TypeLabel(ringSize int) string {
	switch ringSize {
	case 1:
		return TypeNonExchange
	case 2:
		return TypePairwise
	default:
		return fmt.Sprintf("%d-way", ringSize)
	}
}

// ClassResult aggregates one strategy class of the population: its label,
// size, and measurement-window download statistics.
type ClassResult struct {
	// Label is the strategy-class name (e.g. "sharing", "adaptive").
	Label string
	// Share reports whether the class contributes from the start; it puts the
	// class on the sharing or the non-sharing side of the paper's figures.
	Share bool
	// Peers is the class population size.
	Peers int
	// Completed counts the class's completed downloads in the window.
	Completed int
	// DownloadTime holds the class's download-time samples (minutes).
	DownloadTime *metrics.Sample
	// VolumePerPeerMB is the mean megabytes received per class peer during
	// the measurement window.
	VolumePerPeerMB float64
	// Whitewashes counts identity churns executed by the class; Flips counts
	// adaptive contribution toggles (both zero for static classes).
	Whitewashes int
	Flips       int
}

// Result aggregates everything one run measures. All times are minutes of
// virtual time, all volumes kilobytes or megabytes as labeled.
type Result struct {
	// Policy is the exchange policy label of the run.
	Policy string
	// SimulatedSeconds is the virtual horizon; Events the events executed:
	// Blocks block arrivals, counted when credited rather than scheduled,
	// and HeapEvents fired off the event queue's heap.
	SimulatedSeconds float64
	Events           uint64
	Blocks           uint64
	HeapEvents       uint64

	// Classes holds the per-strategy-class results in population-mix order.
	// For the legacy two-class population this is exactly [non-sharing,
	// sharing]; richer mixes add one entry per class.
	Classes []ClassResult

	// SessionVolumeKB samples kilobytes delivered per session, keyed by
	// session class (Figure 7).
	SessionVolumeKB *metrics.Grouped
	// WaitingTimeMin samples request-to-transfer-start waits in minutes,
	// keyed by session class (Figure 8).
	WaitingTimeMin *metrics.Grouped

	// SessionCount counts finished sessions per class; ExchangeFraction is
	// the fraction of them that were exchanges (Figure 5).
	SessionCount     map[string]int
	ExchangeFraction float64

	// RingsStarted counts exchange rings by size; RingAttempts and
	// RingValidationFailures expose search/validation dynamics.
	RingsStarted           map[int]int
	RingAttempts           int
	RingValidationFailures int

	// Preemptions counts non-exchange uploads reclaimed for exchanges.
	Preemptions int
	// IRQRejected counts requests dropped at full queues.
	IRQRejected int
	// LookupFailures counts request attempts that found no holder.
	LookupFailures int
	// WorkloadDropped counts open-loop demand arrivals lost because the
	// peer was already at MaxPending (always zero for closed-loop runs).
	WorkloadDropped int

	// RingSearches counts ring searches executed; SearchNodesVisited and
	// SearchWantsChecked aggregate their traversal cost (Section V's search
	// effort concern, surfaced through exchsim -perf). The second is computed,
	// not performed: see core.SearchStats.WantsChecked.
	RingSearches       int
	SearchNodesVisited int
	SearchWantsChecked int
}

// Class returns the result entry for the given strategy-class label, or nil
// if the run's population had no such class.
func (r *Result) Class(label string) *ClassResult {
	for i := range r.Classes {
		if r.Classes[i].Label == label {
			return &r.Classes[i]
		}
	}
	return nil
}

// ClassMeanDownloadMin returns the mean download time in minutes for the
// given strategy class, or NaN if the class is absent or completed nothing.
func (r *Result) ClassMeanDownloadMin(label string) float64 {
	c := r.Class(label)
	if c == nil {
		return math.NaN()
	}
	return c.DownloadTime.Mean()
}

// side folds the classes on one side of the paper's sharing/non-sharing
// split (ClassResult.Share): their completed downloads, the mean download
// time over all of their samples (NaN with none), and the megabytes received
// per peer, weighted by class size. A side of exactly one class — every
// nil-Mix run — returns that class's own values, never a re-sum, so the
// two-class figures stay byte-identical.
func (r *Result) side(share bool) (completed int, meanMin, volumeMB float64) {
	var only *ClassResult
	classes, peers, sum := 0, 0, 0.0
	for i := range r.Classes {
		c := &r.Classes[i]
		if c.Share != share {
			continue
		}
		only, classes = c, classes+1
		if c.Completed > 0 {
			sum += c.DownloadTime.Mean() * float64(c.Completed)
		}
		completed += c.Completed
		peers += c.Peers
		volumeMB += c.VolumePerPeerMB * float64(c.Peers)
	}
	if classes == 1 {
		return only.Completed, only.DownloadTime.Mean(), only.VolumePerPeerMB
	}
	meanMin = math.NaN()
	if completed > 0 {
		meanMin = sum / float64(completed)
	}
	if peers > 0 {
		volumeMB /= float64(peers)
	}
	return completed, meanMin, volumeMB
}

// MeanDownloadMin returns the mean download time in minutes over the
// sharing (or non-sharing) classes, or NaN if they completed nothing.
func (r *Result) MeanDownloadMin(sharing bool) float64 {
	_, m, _ := r.side(sharing)
	return m
}

// VolumePerPeerMB returns the mean megabytes received per peer of the
// sharing (or non-sharing) classes during the measurement window (Figure 10).
func (r *Result) VolumePerPeerMB(sharing bool) float64 {
	_, _, mb := r.side(sharing)
	return mb
}

// MeanDownloadMinAll returns the mean download time in minutes over both
// sides combined (the paper's single "no exchange" line), or NaN if the
// run completed nothing.
func (r *Result) MeanDownloadMinAll() float64 {
	sn, sm, _ := r.side(true)
	nn, nm, _ := r.side(false)
	if sn+nn == 0 {
		return math.NaN()
	}
	sum := 0.0
	if sn > 0 {
		sum += sm * float64(sn)
	}
	if nn > 0 {
		sum += nm * float64(nn)
	}
	return sum / float64(sn+nn)
}

// SpeedupSharingVsNonSharing returns the ratio of non-sharing to sharing
// mean download time (>1 means sharers are faster), or NaN when undefined.
func (r *Result) SpeedupSharingVsNonSharing() float64 {
	s, n := r.MeanDownloadMin(true), r.MeanDownloadMin(false)
	if math.IsNaN(s) || math.IsNaN(n) || s == 0 {
		return math.NaN()
	}
	return n / s
}

// classStats accumulates one strategy class's window metrics.
type classStats struct {
	dt         metrics.Sample
	recvBlocks int // blocks received in the window (blocks.go credits them)
}

// ringTally is the window's session tally of one ring size: the count and
// the size's samples in the volume and waiting Grouped.
type ringTally struct {
	count           int
	volume, waiting *metrics.Sample
}

// collector accumulates run metrics, honoring the warm-up window. Metrics
// are kept per strategy class only; the sharing/non-sharing aggregates are
// derived from Result.Classes.
type collector struct {
	warmupAt   time.Duration
	mix        strategy.Mix
	blockKbits float64

	classes     []classStats
	whitewashes []int // per class, counted over the whole run
	classFlips  []int // adaptive contribution toggles, per class

	volume  *metrics.Grouped
	waiting *metrics.Grouped

	bySize       []ringTally // indexed by ring size
	exchSessions int
	allSessions  int

	ringsStarted map[int]int
	ringAttempts int
	ringFailures int
	preemptions  int
	irqRejected  int
	lookupFails  int
	wlDropped    int

	ringSearches int
	searchNodes  int
	searchWants  int
}

func newCollector(warmupAt time.Duration, mix strategy.Mix, blockKbits float64) *collector {
	return &collector{
		warmupAt:     warmupAt,
		mix:          mix,
		blockKbits:   blockKbits,
		classes:      make([]classStats, len(mix)),
		whitewashes:  make([]int, len(mix)),
		classFlips:   make([]int, len(mix)),
		volume:       metrics.NewGrouped(),
		waiting:      metrics.NewGrouped(),
		ringsStarted: make(map[int]int),
	}
}

func (c *collector) inWindow(now time.Duration) bool { return now >= c.warmupAt }

func (c *collector) downloadDone(now time.Duration, class int, minutes float64) {
	if !c.inWindow(now) {
		return
	}
	c.classes[class].dt.Add(minutes)
}

// sessionDone records a finished (or finalized-at-horizon) session.
func (c *collector) sessionDone(now time.Duration, s *session) {
	if !c.inWindow(now) {
		return
	}
	c.allSessions++
	if s.ringSize > 1 {
		c.exchSessions++
	}
	volume := float64(s.sent) * c.blockKbits / 8 // kbits -> kB
	waiting := seconds(s.startAt-s.dl.requestedAt) / 60
	if s.ringSize >= len(c.bySize) {
		c.bySize = append(c.bySize, make([]ringTally, s.ringSize+1-len(c.bySize))...)
	}
	t := &c.bySize[s.ringSize]
	if t.count == 0 {
		// The size's first session: adding it through the label puts the
		// label in the Groupeds' first-seen order and creates its samples.
		label := TypeLabel(s.ringSize)
		c.volume.Add(label, volume)
		c.waiting.Add(label, waiting)
		t.volume, t.waiting = c.volume.Get(label), c.waiting.Get(label)
	} else {
		t.volume.Add(volume)
		t.waiting.Add(waiting)
	}
	t.count++
}

func (c *collector) ringStarted(now time.Duration, size int) {
	if !c.inWindow(now) {
		return
	}
	c.ringsStarted[size]++
}

func (c *collector) result(policy string, horizon float64, events uint64, classCounts []int) *Result {
	res := &Result{
		Policy:                 policy,
		SimulatedSeconds:       horizon,
		Events:                 events,
		SessionVolumeKB:        c.volume,
		WaitingTimeMin:         c.waiting,
		SessionCount:           make(map[string]int),
		RingsStarted:           c.ringsStarted,
		RingAttempts:           c.ringAttempts,
		RingValidationFailures: c.ringFailures,
		Preemptions:            c.preemptions,
		IRQRejected:            c.irqRejected,
		LookupFailures:         c.lookupFails,
		WorkloadDropped:        c.wlDropped,
		RingSearches:           c.ringSearches,
		SearchNodesVisited:     c.searchNodes,
		SearchWantsChecked:     c.searchWants,
	}
	for size, t := range c.bySize {
		if t.count > 0 {
			res.SessionCount[TypeLabel(size)] = t.count
		}
	}
	if c.allSessions > 0 {
		res.ExchangeFraction = float64(c.exchSessions) / float64(c.allSessions)
	}
	res.Classes = make([]ClassResult, len(c.mix))
	for i, cl := range c.mix {
		cr := ClassResult{
			Label:        cl.Name,
			Share:        cl.Share,
			Peers:        classCounts[i],
			Completed:    c.classes[i].dt.N(),
			DownloadTime: &c.classes[i].dt,
			Whitewashes:  c.whitewashes[i],
			Flips:        c.classFlips[i],
		}
		if classCounts[i] > 0 {
			cr.VolumePerPeerMB = float64(c.classes[i].recvBlocks) * c.blockKbits / float64(classCounts[i]) / 8000
		}
		res.Classes[i] = cr
	}
	return res
}
