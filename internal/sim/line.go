package sim

// Line is a constant-delay FIFO channel: every event sent into it fires
// exactly the line's delay after it was sent. It is the scheduler-side
// model of a wire — the propagation delay a packet or ACK spends crossing
// a link — and it keeps the event queue O(channels) instead of
// O(packets in flight).
//
// A Line holds its in-flight events in a ring buffer and keeps exactly
// one timer in the scheduler's queue, for its head. Send reserves the
// scheduler sequence number the event would have drawn from AfterArg,
// and the head timer is queued under the head entry's reserved
// (at, seq). Because the delay is constant, entries enter the ring in
// both at order and seq order, so the head is always the line's minimum:
// the global pop order — and Executed — are exactly those of one
// AfterArg event per send.
//
// Lines are shared per delay value (Scheduler.Line), since sharing does
// not break the FIFO property. Callers bind a line once, when a flow
// attaches or a route is built, so sending costs no lookup.
type Line struct {
	sch   *Scheduler
	delay Time
	// tm is the head timer: queued while the line holds events. Its fn is
	// the prebound l.fire, bound once so arming allocates nothing.
	tm Timer
	// buf is a power-of-two ring; n entries start at head. It grows by
	// doubling and never shrinks, so steady-state bursts reuse it.
	buf  []lineEntry
	head int
	n    int
}

type lineEntry struct {
	at  Time
	seq uint64
	fn  func(arg any)
	arg any
}

// Line returns the scheduler's shared delay line for delay d (negative
// delays clamp to zero, like AfterArg).
func (s *Scheduler) Line(d Time) *Line {
	if d < 0 {
		d = 0
	}
	if l := s.lines[d]; l != nil {
		return l
	}
	if s.lines == nil {
		s.lines = make(map[Time]*Line)
	}
	l := &Line{sch: s, delay: d}
	l.tm = Timer{fn: l.fire, sch: s, idx: -1}
	s.lines[d] = l
	return l
}

// Send schedules fn(arg) to run the line's delay after the current time.
// It is equivalent to Scheduler.AfterArg with the line's delay — same
// firing time, same position among simultaneous events — and, like it,
// allocation-free in steady state.
func (l *Line) Send(fn func(arg any), arg any) {
	s := l.sch
	s.seq++
	if l.n == len(l.buf) {
		l.grow()
	}
	at := s.now + l.delay
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = lineEntry{at: at, seq: s.seq, fn: fn, arg: arg}
	l.n++
	if l.n == 1 {
		l.arm(at, s.seq)
	}
}

// arm queues the head timer under a reserved (at, seq).
func (l *Line) arm(at Time, seq uint64) {
	l.tm.at, l.tm.seq = at, seq
	l.sch.events.push(&l.tm)
}

// fire is the head timer's callback: it takes the head entry off the
// ring, re-arms the timer for the next entry (before the callback runs,
// so the callback may send into this line again), and runs the entry.
func (l *Line) fire() {
	e := &l.buf[l.head]
	fn, arg := e.fn, e.arg
	*e = lineEntry{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n > 0 {
		next := &l.buf[l.head]
		l.arm(next.at, next.seq)
	}
	fn(arg)
}

func (l *Line) grow() {
	buf := make([]lineEntry, max(16, 2*len(l.buf)))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}
