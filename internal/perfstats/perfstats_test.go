package perfstats

import "testing"

// The counters are process-global; each test scopes itself with Sub.

// TestLiveCountersScopeWithSub: the counters published as they happen show in
// Current and subtract like the rest.
func TestLiveCountersScopeWithSub(t *testing.T) {
	start := Current()
	AddStripeGranted()
	base := Current()
	AddStripeGranted()
	AddStripeReassigned()
	MedRPCStart()
	MedRPCDone()
	d := Current().Sub(base)
	if d.StripesGranted != 1 || d.StripesReassigned != 1 || d.MedRPCs != 1 || Current().Sub(start).StripesGranted != 2 {
		t.Fatalf("delta %+v of %+v", d, Current().Sub(start))
	}
}

func TestSub(t *testing.T) {
	a := Snapshot{MedRPCs: 50, MedRPCPeak: 9, StripesGranted: 40, StripesReassigned: 30}
	b := Snapshot{MedRPCs: 10, MedRPCPeak: 4, StripesGranted: 10, StripesReassigned: 10}
	got := a.Sub(b)
	want := Snapshot{MedRPCs: 40, MedRPCPeak: 9, StripesGranted: 30, StripesReassigned: 20}
	if got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
}

// TestMedRPCPeakIsDepth: the peak is the most RPCs in flight at once, not
// the number issued.
func TestMedRPCPeakIsDepth(t *testing.T) {
	base := Current()
	for range 3 {
		MedRPCStart()
	}
	for range 3 {
		MedRPCDone()
	}
	MedRPCStart()
	MedRPCDone()
	if d := Current().Sub(base); d.MedRPCs != 4 || d.MedRPCPeak < 3 {
		t.Fatalf("4 RPCs, 3 at once: %+v", d)
	}
}
