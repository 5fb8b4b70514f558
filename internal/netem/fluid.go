package netem

import "nimbus/internal/sim"

// Fluid cross traffic: a link can carry an aggregate background load as a
// piecewise-constant *rate process* instead of discrete packets. Between
// rate-change events the load's effect on the queue is integrated
// analytically — backlog growth while the link is busy with foreground
// packets, drain while it is idle, overflow against the buffer — so the
// aggregate costs one scheduler event per rate change instead of one per
// packet. Foreground packets stay exact: they are admitted against the
// combined (packet + fluid) occupancy, and any fluid backlog standing in
// front of a dequeued packet serializes ahead of it, extending its
// transmission and recorded queueing delay exactly as the equivalent
// packet burst would.
//
// The approximation holds when the aggregate is far from the detector's
// measurement window: it preserves mean load, queue occupancy, and drop
// pressure, but replaces per-packet arrival jitter with its fluid limit.
// It deliberately composes only with DropTail (the FluidAware queue):
// AQM disciplines (CoDel, PIE) make drop decisions from per-packet
// sojourn times and wall-clock laws that a rate process cannot feed, so
// on those queues the fluid backlog still consumes buffer room and link
// time but is invisible to the AQM drop law — a documented fidelity gap
// (see DESIGN.md's decision table).

// EnableFluid turns on the link's fluid cross-traffic term. capBytes is
// the buffer room the fluid backlog shares with foreground packets
// (normally the queue's own capacity). Foreground admission on a
// FluidAware queue then counts the fluid backlog as occupancy, and the
// backlog itself is capped at the room foreground packets leave —
// overflow is dropped fluid. Configure before traffic starts.
func (l *Link) EnableFluid(capBytes int) {
	l.fluidOn = true
	l.fluidCap = capBytes
	l.fluidSettled = l.Sch.Now()
	if fa, ok := l.Q.(FluidAware); ok {
		fa.SetExtraOccupancy(l.fluidOccupancy)
	}
}

// FluidEnabled reports whether the link carries a fluid load term.
func (l *Link) FluidEnabled() bool { return l.fluidOn }

// fluidOccupancy is the admission hook handed to FluidAware queues: the
// current backlog in whole bytes. Send settles before enqueueing, so the
// backlog is already current when the queue consults it.
func (l *Link) fluidOccupancy() int { return int(l.fluidBacklog) }

// AddFluidRate adds deltaBps (bits/s, may be negative) to the link's
// fluid arrival rate. Deltas compose: a topology's constant per-link
// load and a scenario's fluid source can both feed one link. The rate
// is clamped at zero. EnableFluid must have been called.
func (l *Link) AddFluidRate(deltaBps float64) {
	l.settleFluid(l.Sch.Now())
	l.fluidBps += deltaBps
	if l.fluidBps < 0 {
		l.fluidBps = 0
	}
}

// FluidRate returns the current fluid arrival rate in bits/s.
func (l *Link) FluidRate() float64 { return l.fluidBps }

// FluidBacklog settles and returns the current fluid backlog in bytes.
func (l *Link) FluidBacklog() float64 {
	l.settleFluid(l.Sch.Now())
	return l.fluidBacklog
}

// FluidStats settles and returns the cumulative fluid bytes delivered
// and dropped. Elastic fluid sources read the dropped counter's delta as
// their congestion signal.
func (l *Link) FluidStats() (delivered, dropped float64) {
	l.settleFluid(l.Sch.Now())
	return l.fluidDelivered, l.fluidDropped
}

// settleFluid integrates the fluid process from the last settlement to
// now: while the link is busy with a foreground packet (or in an outage)
// arrivals accumulate as backlog; while it is idle the backlog plus
// arrivals drain at capacity, charging the link's busy time so
// utilization includes the background load. The backlog is then capped
// at the buffer room foreground packets leave, the overflow counted as
// dropped fluid. Every caller that changes the rate, the capacity, or
// the busy state settles first, so each integrated segment has constant
// parameters and the result is exact for the fluid model.
func (l *Link) settleFluid(now sim.Time) {
	if !l.fluidOn || now <= l.fluidSettled {
		return
	}
	dt := (now - l.fluidSettled).Seconds()
	l.fluidSettled = now
	arrived := l.fluidBps / 8 * dt
	if l.busy || l.rateBps <= 0 {
		l.fluidBacklog += arrived
	} else {
		drainable := l.rateBps / 8 * dt
		delivered := l.fluidBacklog + arrived
		if delivered > drainable {
			delivered = drainable
		}
		l.fluidBacklog += arrived - delivered
		if delivered > 0 {
			l.fluidDelivered += delivered
			l.busyTime += sim.FromSeconds(delivered * 8 / l.rateBps)
		}
	}
	room := float64(l.fluidCap - l.Q.BytesQueued())
	if room < 0 {
		room = 0
	}
	if l.fluidBacklog > room {
		l.fluidDropped += l.fluidBacklog - room
		l.fluidBacklog = room
	}
}

// flushFluidAhead serializes the fluid that stands in FIFO order ahead
// of the foreground packet the link just dequeued: only fluid that
// arrived before the packet enqueued (its fluidMark, stamped by Send)
// delays it — fluid arriving while it waited stays backlog behind it,
// exactly as later cross packets would in the per-packet path. The
// flushed bytes' transmission time extends the packet's queueing delay
// and, on the constant-rate path, its completion event. On a varying
// link the caller folds the returned bits into txBitsLeft instead, so
// only the delay attribution (at the current rate, zero during an
// outage) happens here.
//
// The mark is the link's cumulative delivered+standing fluid at
// enqueue time, so "ahead" is mark minus delivered-so-far: head-of-
// line fluid deliveries consume it, while overflow drops (which shed
// the newest fluid, behind the packet) do not.
func (l *Link) flushFluidAhead(p *Packet) (ftx sim.Time, bits float64) {
	ahead := p.fluidMark - l.fluidDelivered
	if ahead > l.fluidBacklog {
		ahead = l.fluidBacklog
	}
	if ahead <= 0 {
		return 0, 0
	}
	l.fluidBacklog -= ahead
	l.fluidDelivered += ahead
	if l.rateBps > 0 {
		ftx = sim.FromSeconds(ahead * 8 / l.rateBps)
	}
	p.QueueDelay += ftx
	l.qdelaySum += ftx
	return ftx, ahead * 8
}
