package workload

import "testing"

// BenchmarkWorkloadSchedule measures the temporal workload layer's
// scheduling throughput: compiling a builtin spec and walking every peer's
// arrival process across the full horizon, exactly as the simulator's
// open-loop setup and the swarm's wave builder do. Reported as sampled
// arrivals per second of wall time.
func BenchmarkWorkloadSchedule(b *testing.B) {
	spec, ok := Builtin("flash")
	if !ok {
		b.Fatal("flash builtin missing")
	}
	const peers, objects = 200, 100
	b.ReportAllocs()
	var arrivals uint64
	for i := 0; i < b.N; i++ {
		sched, err := spec.Compile(3600, peers, objects, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < peers; p++ {
			arrive, depart := sched.Session(p)
			st := sched.PeerStream(p)
			for t := sched.NextArrival(arrive, st); t < depart; t = sched.NextArrival(t, st) {
				if obj := sched.SampleObject(t, st); obj < 0 || obj >= objects {
					b.Fatalf("object %d out of range", obj)
				}
				arrivals++
			}
		}
	}
	if arrivals == 0 {
		b.Fatal("schedule produced no arrivals")
	}
	b.ReportMetric(float64(arrivals)/b.Elapsed().Seconds(), "arrivals/s")
}
