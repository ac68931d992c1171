package rt_test

import (
	"testing"
	"time"

	"tbwf/internal/prim"
	"tbwf/internal/rt"
)

// BenchmarkGatePace measures one pp.Step through the gate. zero is the
// nil-profile fast path every timely process pays on every protocol step:
// crash/stop loads, the step-gap telemetry fold, the step bump and a
// Gosched. parked is a paced step through the pooled interruptible park;
// its ns/op is the 5 µs gap itself, its allocs/op shows the pool working.
func BenchmarkGatePace(b *testing.B) {
	for _, tc := range []struct {
		name    string
		profile rt.Profile
	}{
		{"zero", nil},
		{"parked", rt.Steady(5 * time.Microsecond)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			r := rt.New(1, tc.profile)
			done := make(chan struct{})
			r.Spawn(0, "bench", func(pp prim.Proc) {
				defer close(done)
				pp.Step() // warm the timer pool before the clock starts
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pp.Step()
				}
				b.StopTimer()
			})
			<-done
			if err := r.Stop(); err != nil {
				b.Fatalf("Stop: %v", err)
			}
		})
	}
}

// BenchmarkAwaitHandoff measures the event wait that replaced the skip
// loops: one op is a there-and-back, two Set → Step trips, back to back and
// so inside prim.LingerWindow (the parked wake-up is timed by
// TestAwaitParksWithoutStepsAndWakesOnSet).
func BenchmarkAwaitHandoff(b *testing.B) {
	b.ReportAllocs()
	onHandoff(b, func(_ *rt.Runtime, roundTrip func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			roundTrip()
		}
		b.StopTimer()
	})
}

// BenchmarkInvokePath measures the end-to-end direct Stack invocation on
// rt — Ω∆ leadership, the QA ballot, the typed registers and the recycling
// slot store per op — with the peer client of TestInvokePathZeroAlloc
// invoking throughout, so ns/op includes genuine two-client contention.
func BenchmarkInvokePath(b *testing.B) {
	b.ReportAllocs()
	st := onWarmInvokePath(b, func(invoke func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			invoke()
		}
		b.StopTimer()
	})
	if want := int64(400 + b.N); st.Clients[0].Completed() != want {
		b.Fatalf("completed %d ops, want %d", st.Clients[0].Completed(), want)
	}
}
