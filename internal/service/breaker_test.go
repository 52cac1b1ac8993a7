package service

import (
	"testing"
	"time"

	"nascent"
)

// fakeClock drives the breaker's cooldown in tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

// TestBreakerLifecycle walks the full state machine: closed → trip
// after threshold consecutive quarantines → degraded service → probe
// after cooldown → close on probe success.
func TestBreakerLifecycle(t *testing.T) {
	b, clk := newTestBreaker(3, time.Minute)
	pair := func() (bool, bool) { return b.allow(nascent.ALL, nascent.EngineVMOpt) }
	report := func(probe, abnormal bool) { b.report(nascent.ALL, nascent.EngineVMOpt, probe, abnormal) }

	// Closed: requests pass verbatim.
	if deg, probe := pair(); deg || probe {
		t.Fatalf("fresh breaker: degraded=%v probe=%v", deg, probe)
	}

	// Two quarantines, then a success: the consecutive counter resets.
	report(false, true)
	report(false, true)
	report(false, false)
	report(false, true)
	report(false, true)
	if deg, _ := pair(); deg {
		t.Fatal("breaker tripped below threshold (success did not reset the streak)")
	}

	// Third consecutive quarantine trips it.
	report(false, true)
	if deg, _ := pair(); !deg {
		t.Fatal("breaker did not trip at threshold")
	}
	if st := b.stats(); st.Trips != 1 || len(st.Open) != 1 {
		t.Fatalf("stats after trip: %+v", st)
	}

	// Another pair is unaffected.
	if deg, _ := b.allow(nascent.Naive, nascent.EngineTree); deg {
		t.Fatal("unrelated pair degraded")
	}

	// Before the cooldown: still degraded, no probe.
	clk.advance(30 * time.Second)
	if deg, probe := pair(); !deg || probe {
		t.Fatalf("mid-cooldown: degraded=%v probe=%v", deg, probe)
	}

	// After the cooldown: exactly one probe goes through verbatim;
	// concurrent requests keep degrading while it is in flight.
	clk.advance(31 * time.Second)
	if deg, probe := pair(); deg || !probe {
		t.Fatalf("post-cooldown: degraded=%v probe=%v, want probe", deg, probe)
	}
	if deg, probe := pair(); !deg || probe {
		t.Fatalf("second request during probe: degraded=%v probe=%v", deg, probe)
	}

	// Probe succeeds: circuit closes, traffic flows verbatim again.
	report(true, false)
	if deg, probe := pair(); deg || probe {
		t.Fatalf("after successful probe: degraded=%v probe=%v", deg, probe)
	}
}

// TestBreakerFailedProbe: a failed probe re-opens the circuit and
// restarts the cooldown from the failure.
func TestBreakerFailedProbe(t *testing.T) {
	b, clk := newTestBreaker(2, time.Minute)
	report := func(probe, abnormal bool) { b.report(nascent.LLS, nascent.EngineVM, probe, abnormal) }
	pair := func() (bool, bool) { return b.allow(nascent.LLS, nascent.EngineVM) }

	report(false, true)
	report(false, true) // trips
	clk.advance(time.Minute)
	if _, probe := pair(); !probe {
		t.Fatal("no probe after cooldown")
	}
	report(true, true) // probe failed

	// Still open; the cooldown restarted, so just before it elapses
	// there is no new probe.
	clk.advance(time.Minute - time.Second)
	if deg, probe := pair(); !deg || probe {
		t.Fatalf("after failed probe: degraded=%v probe=%v", deg, probe)
	}
	clk.advance(2 * time.Second)
	if _, probe := pair(); !probe {
		t.Fatal("no second probe after restarted cooldown")
	}
	if st := b.stats(); st.Trips != 2 || st.Probes != 2 {
		t.Fatalf("stats: %+v, want 2 trips, 2 probes", st)
	}
}

// TestBreakerDegradeLadder pins where an open circuit sends a request,
// for every engine and every set of open circuits on the other
// bytecode engines. A tripped engine steps down its ladder, skipping
// every rung whose own circuit is open, and lands on the reference
// configuration (naive scheme, tree engine) once the ladder runs out.
// The ladder is spelled out here, not read from the engine table, so
// the test pins the behaviour rather than the table.
func TestBreakerDegradeLadder(t *testing.T) {
	ladder := map[string][]string{
		"tree":   nil,
		"vm":     nil,
		"vmopt":  nil,
		"vmrce":  {"vmopt"},
		"vmjit":  {"vmrce", "vmopt"},
		"tiered": {"vmrce", "vmopt"},
	}
	s := newTestServer(t, nil)
	names := nascent.EngineNames()
	if len(names) != len(ladder) {
		t.Fatalf("engines %v, ladder covers %d", names, len(ladder))
	}
	for _, from := range names {
		var others []string
		for _, n := range names {
			if n != from && n != "tree" {
				others = append(others, n)
			}
		}
		for set := 0; set < 1<<len(others); set++ {
			s.breaker = newBreaker(0, 0)
			open := map[string]bool{from: true}
			s.breaker.trip(nascent.ALL, mustEngine(t, from))
			for i, n := range others {
				if set&(1<<i) != 0 {
					open[n] = true
					s.breaker.trip(nascent.ALL, mustEngine(t, n))
				}
			}
			wantEngine, wantScheme := "tree", nascent.Naive.String()
			for _, rung := range ladder[from] {
				if !open[rung] {
					wantEngine, wantScheme = rung, nascent.ALL.String()
					break
				}
			}
			r, apiErr := s.resolve(&RunRequest{CompileRequest: CompileRequest{
				Source: progOK, Options: Options{Scheme: "all"}, Engine: from,
			}})
			if apiErr != nil {
				t.Fatalf("%s open %v: %v", from, open, apiErr)
			}
			d := r.degraded
			if d == nil {
				t.Fatalf("%s open %v: not degraded", from, open)
			}
			if d.FromEngine != from || d.FromScheme != nascent.ALL.String() ||
				d.ToEngine != wantEngine || d.ToScheme != wantScheme {
				t.Errorf("%s open %v: degraded %s/%s -> %s/%s, want -> %s/%s", from, open,
					d.FromScheme, d.FromEngine, d.ToScheme, d.ToEngine, wantScheme, wantEngine)
			}
			if r.engine.String() != wantEngine || r.opts.Scheme.String() != wantScheme {
				t.Errorf("%s open %v: resolved %v/%v, want %s/%s", from, open,
					r.opts.Scheme, r.engine, wantScheme, wantEngine)
			}
		}
	}
}

func mustEngine(t *testing.T, name string) nascent.Engine {
	t.Helper()
	e, err := nascent.ParseEngine(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
