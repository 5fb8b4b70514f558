package sim

import "testing"

// lineDelays are the delays the differential harness sends on. Zero is
// included: a zero-delay line fires at the current instant, after every
// event already queued for it.
var lineDelays = [...]Time{0, Microsecond, 3 * Millisecond, 10 * Millisecond}

// delayOf maps a byte to a delay that often ties with line deliveries:
// one of lineDelays plus 0–3 µs.
func delayOf(b byte) Time {
	return lineDelays[b%4] + Time(b/4%4)*Microsecond
}

// lineHarness replays a decoded op stream on one scheduler and records
// the order callbacks run in. With lines set, line sends go through
// Scheduler.Line; without, each one is the plain AfterArg it must be
// equivalent to — the reference.
type lineHarness struct {
	s       *Scheduler
	lines   bool
	got     []int
	next    int
	handles [4]*Timer
	fire    func(arg any)
}

func newLineHarness(lines bool) *lineHarness {
	h := &lineHarness{s: NewScheduler(), lines: lines}
	h.fire = func(arg any) {
		v := arg.(int)
		id, depth := v>>2, v&3
		h.got = append(h.got, id)
		// Chains of sends from inside callbacks: a line re-arms for its
		// next entry before the callback sends into it again.
		if depth < 3 && id%3 != 2 {
			h.send(id%len(lineDelays), depth+1)
		}
	}
	return h
}

func (h *lineHarness) id() int {
	h.next++
	return h.next
}

func (h *lineHarness) send(k, depth int) {
	arg := h.id()<<2 | depth
	if h.lines {
		h.s.Line(lineDelays[k]).Send(h.fire, arg)
	} else {
		h.s.AfterArg(lineDelays[k], h.fire, arg)
	}
}

func (h *lineHarness) record() func() {
	id := h.id()
	return func() { h.got = append(h.got, id) }
}

// run decodes data two bytes per op — an opcode and a parameter — and
// runs the scheduler dry at the end.
func (h *lineHarness) run(data []byte) {
	for i := 0; i+1 < len(data); i += 2 {
		op, b := data[i]%6, data[i+1]
		s := h.s
		switch op {
		case 0:
			h.send(int(b%4), 0)
		case 1:
			id := h.id()
			s.AfterArg(delayOf(b), func(any) { h.got = append(h.got, id) }, nil)
		case 2:
			s.AfterFunc(delayOf(b), h.record())
		case 3:
			k := b % 4
			h.handles[k] = s.Rearm(h.handles[k], s.Now()+delayOf(b/4), h.record())
		case 4:
			h.handles[b%4].Cancel()
		case 5:
			s.RunUntil(s.Now() + delayOf(b))
		}
	}
	h.s.Run()
}

// checkLineMatchesAfterArg runs data on a line-backed and a reference
// scheduler and requires identical callback order, Executed and clock.
func checkLineMatchesAfterArg(t *testing.T, data []byte) {
	t.Helper()
	ref, lin := newLineHarness(false), newLineHarness(true)
	ref.run(data)
	lin.run(data)
	if len(ref.got) != len(lin.got) {
		t.Fatalf("ran %d callbacks on lines, %d on AfterArg", len(lin.got), len(ref.got))
	}
	for i := range ref.got {
		if ref.got[i] != lin.got[i] {
			t.Fatalf("order diverges at callback %d: lines=%d AfterArg=%d", i, lin.got[i], ref.got[i])
		}
	}
	if ref.s.Executed != lin.s.Executed || ref.s.Now() != lin.s.Now() {
		t.Fatalf("Executed/Now: lines=%d/%v AfterArg=%d/%v",
			lin.s.Executed, lin.s.Now(), ref.s.Executed, ref.s.Now())
	}
}

// FuzzLineMatchesAfterArg is the delay line's contract: any interleaving
// of line sends (several delays, zero included), AfterArg/AfterFunc,
// Rearm, Cancel and mid-run RunUntil runs callbacks in exactly the order,
// and with exactly the Executed count, of sending every line event as a
// plain AfterArg.
func FuzzLineMatchesAfterArg(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 5, 40})
	f.Add([]byte{0, 2, 1, 2, 2, 2, 0, 2, 3, 9, 5, 6, 0, 2, 4, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Oversized inputs are ignored rather than truncated: they would
		// add no coverage and make minimization crawl.
		if len(data) > 512 {
			return
		}
		checkLineMatchesAfterArg(t, data)
	})
}

// TestLineMatchesAfterArgRandom runs the differential check on long
// pseudo-random op streams, so plain `go test` covers dense interleavings
// beyond the seed corpus.
func TestLineMatchesAfterArgRandom(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99, 12345} {
		rng := NewRand(seed)
		data := make([]byte, 4000)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		checkLineMatchesAfterArg(t, data)
	}
}

func TestLineSharedPerDelay(t *testing.T) {
	s := NewScheduler()
	if s.Line(Millisecond) != s.Line(Millisecond) {
		t.Fatal("equal delays got distinct lines")
	}
	if s.Line(-Millisecond) != s.Line(0) {
		t.Fatal("negative delay did not clamp to the zero line")
	}
	if s.Line(Millisecond) == s.Line(2*Millisecond) {
		t.Fatal("distinct delays share a line")
	}
}

// TestLinePendingCountsChannels: a line carrying many events is one
// queued timer.
func TestLinePendingCountsChannels(t *testing.T) {
	s := NewScheduler()
	noop := func(any) {}
	for i := 0; i < 100; i++ {
		s.Line(Millisecond).Send(noop, nil)
		s.Line(2*Millisecond).Send(noop, nil)
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (one per line)", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 || s.Executed != 200 {
		t.Fatalf("after Run: Pending = %d, Executed = %d", s.Pending(), s.Executed)
	}
}

// TestLineSteadyStateAllocFree: once the ring has grown to the largest
// burst, sends and deliveries allocate nothing.
func TestLineSteadyStateAllocFree(t *testing.T) {
	s := NewScheduler()
	l := s.Line(Millisecond)
	noop := func(any) {}
	burst := func() {
		for i := 0; i < 100; i++ {
			l.Send(noop, nil)
		}
		s.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs > 0 {
		t.Fatalf("line send/deliver allocates %.2f/op in steady state, want 0", allocs)
	}
}
