package netem

import (
	"math"
	"testing"

	"nimbus/internal/sim"
)

// delivery is one observed packet completion: who, when, and how long it
// queued. The equivalence tests compare full delivery sequences, so any
// divergence in ordering, timing, or delay accounting fails loudly.
type delivery struct {
	seq uint64
	at  sim.Time
	qd  sim.Time
}

// linkRun holds everything a link scenario run produces that an
// equivalent configuration must not change.
type linkRun struct {
	dels     []delivery
	drops    []uint64
	executed uint64

	delivered uint64
	bytes     uint64
	dropped   uint64
	meanQD    sim.Time
	util      float64
	queued    int
}

// requireSameRun asserts that two runs are observably identical: same
// delivery sequence (identity, completion time, queueing delay), same
// drops, and same counters.
func requireSameRun(t *testing.T, want, got linkRun) {
	t.Helper()
	if len(got.dels) != len(want.dels) {
		t.Fatalf("delivered %d packets, want %d", len(got.dels), len(want.dels))
	}
	for i := range want.dels {
		if got.dels[i] != want.dels[i] {
			t.Fatalf("delivery %d = %+v, want %+v", i, got.dels[i], want.dels[i])
		}
	}
	if len(got.drops) != len(want.drops) {
		t.Fatalf("dropped %d packets, want %d", len(got.drops), len(want.drops))
	}
	for i := range want.drops {
		if got.drops[i] != want.drops[i] {
			t.Fatalf("drop %d = seq %d, want seq %d", i, got.drops[i], want.drops[i])
		}
	}
	if got.delivered != want.delivered || got.bytes != want.bytes || got.dropped != want.dropped {
		t.Fatalf("counters delivered=%d bytes=%d dropped=%d, want %d/%d/%d",
			got.delivered, got.bytes, got.dropped, want.delivered, want.bytes, want.dropped)
	}
	if got.meanQD != want.meanQD {
		t.Fatalf("MeanQueueDelay = %v, want %v", got.meanQD, want.meanQD)
	}
	if got.util != want.util {
		t.Fatalf("Utilization = %v, want %v", got.util, want.util)
	}
	if got.queued != want.queued {
		t.Fatalf("BytesQueued = %d, want %d", got.queued, want.queued)
	}
}

// runFluidScenario drives a deterministic arrival pattern through a
// 12 Mbit/s link (1500 B = 1 ms serialization) with the caller's queue:
// an opening flood that overflows a 6000 B buffer, a sustained phase
// whose 0.73 ms inter-arrivals interleave with the 1 ms service times, a
// second flood after an idle gap, and a tail of short 500 B packets that
// vary the per-packet serialization time. configure sets up the link
// (enable fluid, add rate) before traffic starts; equivalence failures
// report the first diverging observable (requireSameRun).
func runFluidScenario(t *testing.T, mkQueue func() Queue, configure func(l *Link)) linkRun {
	t.Helper()
	sch := sim.NewScheduler()
	l := NewLink(sch, 12e6, mkQueue())
	if configure != nil {
		configure(l)
	}
	var r linkRun
	l.Deliver = func(p *Packet, now sim.Time) {
		r.dels = append(r.dels, delivery{p.Seq, now, p.QueueDelay})
	}
	l.OnDrop = func(p *Packet, now sim.Time) {
		r.drops = append(r.drops, p.Seq)
	}
	seq := uint64(0)
	send := func(at sim.Time, n, size int) {
		for i := 0; i < n; i++ {
			p := &Packet{Seq: seq, Size: size}
			seq++
			sch.At(at, func() { l.Send(p) })
		}
	}
	send(0, 8, 1500)
	for i := 0; i < 30; i++ {
		send(sim.Time(i)*730*sim.Microsecond, 1, 1500)
	}
	send(40*sim.Millisecond, 10, 1500)
	for i := 0; i < 12; i++ {
		send(55*sim.Millisecond+sim.Time(i)*300*sim.Microsecond, 1, 500)
	}
	sch.RunUntil(100 * sim.Millisecond)

	r.executed = sch.Executed
	r.delivered = l.DeliveredPackets
	r.bytes = l.DeliveredBytes
	r.dropped = l.DroppedPackets
	r.meanQD = l.MeanQueueDelay()
	r.util = l.Utilization()
	r.queued = l.Q.BytesQueued()
	return r
}

// TestFluidDisabledByteIdentical pins the flag-off contract: a link that
// never enables fluid behaves event-for-event like the seed — the
// admission hook left nil, a hook pinned at zero extra occupancy, and a
// fluid-enabled link carrying zero rate must all produce the identical
// run (same deliveries, delays, drops, counters, and executed event
// count), so compiling the fluid machinery in changes nothing until a
// rate actually flows.
func TestFluidDisabledByteIdentical(t *testing.T) {
	dt := func() Queue { return NewDropTail(6000) }
	base := runFluidScenario(t, dt, nil)
	if len(base.drops) == 0 {
		t.Fatal("scenario produced no drops; it no longer exercises admission under load")
	}
	t.Run("zero-extra-hook", func(t *testing.T) {
		got := runFluidScenario(t, dt, func(l *Link) {
			l.Q.(FluidAware).SetExtraOccupancy(func() int { return 0 })
		})
		requireSameRun(t, base, got)
		if got.executed != base.executed {
			t.Fatalf("executed %d events with a zero hook, %d without", got.executed, base.executed)
		}
	})
	t.Run("fluid-on-zero-rate", func(t *testing.T) {
		got := runFluidScenario(t, dt, func(l *Link) { l.EnableFluid(6000) })
		requireSameRun(t, base, got)
		if got.executed != base.executed {
			t.Fatalf("executed %d events with zero-rate fluid, %d without", got.executed, base.executed)
		}
	})
}

// fluidConservation asserts the integrator's bookkeeping identity:
// every byte that arrived is delivered, dropped, or still standing.
func fluidConservation(t *testing.T, l *Link, arrivedBytes float64) {
	t.Helper()
	delivered, dropped := l.FluidStats()
	total := delivered + dropped + l.FluidBacklog()
	if math.Abs(total-arrivedBytes) > 1e-6*arrivedBytes+1e-9 {
		t.Fatalf("conservation: delivered %.1f + dropped %.1f + backlog %.1f = %.1f, want %.1f arrived",
			delivered, dropped, l.FluidBacklog(), total, arrivedBytes)
	}
}

// TestFluidCBRUnderload checks the analytic drain on an otherwise idle
// link: a 24 Mbit/s fluid load on a 96 Mbit/s link delivers exactly its
// arrivals, drops nothing, leaves no standing backlog, and charges the
// link 25% busy time.
func TestFluidCBRUnderload(t *testing.T) {
	sch := sim.NewScheduler()
	l := NewLink(sch, 96e6, NewDropTail(1<<20))
	l.EnableFluid(1 << 20)
	l.AddFluidRate(24e6)
	dur := 10 * sim.Second
	sch.RunUntil(dur)
	arrived := 24e6 / 8 * dur.Seconds()
	fluidConservation(t, l, arrived)
	delivered, dropped := l.FluidStats()
	if math.Abs(delivered-arrived) > 1 {
		t.Fatalf("delivered %.0f fluid bytes, want %.0f", delivered, arrived)
	}
	if dropped != 0 {
		t.Fatalf("dropped %.0f fluid bytes on an underloaded link", dropped)
	}
	if u := l.Utilization(); math.Abs(u-0.25) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

// TestFluidOverloadDropsAndAdmission overloads the link (120 Mbit/s of
// fluid on 96): the backlog must cap at the buffer, the excess count as
// dropped fluid, delivery run at capacity, and a foreground packet must
// be refused admission because the fluid backlog fills the buffer.
func TestFluidOverloadDropsAndAdmission(t *testing.T) {
	sch := sim.NewScheduler()
	const capBytes = 60000
	l := NewLink(sch, 96e6, NewDropTail(capBytes))
	l.EnableFluid(capBytes)
	l.AddFluidRate(120e6)
	dur := 10 * sim.Second
	sch.RunUntil(dur)
	arrived := 120e6 / 8 * dur.Seconds()
	fluidConservation(t, l, arrived)
	if bl := l.FluidBacklog(); math.Abs(bl-capBytes) > 1 {
		t.Fatalf("backlog = %.0f, want capped at %d", bl, capBytes)
	}
	delivered, dropped := l.FluidStats()
	// Capacity-bound delivery: 96 Mbit/s for the whole run (modulo the
	// instant the buffer first filled).
	wantDelivered := 96e6 / 8 * dur.Seconds()
	if math.Abs(delivered-wantDelivered) > capBytes {
		t.Fatalf("delivered %.0f fluid bytes, want ~%.0f (capacity-bound)", delivered, wantDelivered)
	}
	if dropped <= 0 {
		t.Fatal("overload dropped no fluid")
	}
	if u := l.Utilization(); math.Abs(u-1) > 1e-3 {
		t.Fatalf("utilization = %v, want ~1 under overload", u)
	}
	// The standing backlog fills the buffer, so foreground admission
	// must fail against the combined occupancy.
	var droppedPkt bool
	l.OnDrop = func(p *Packet, now sim.Time) { droppedPkt = true }
	l.Send(&Packet{Seq: 1, Size: 1500})
	if !droppedPkt {
		t.Fatal("foreground packet admitted past a full fluid backlog")
	}
}

// TestFluidFlushAhead pins the FIFO serialization semantics: only
// fluid that arrived before a foreground packet enqueued serializes
// ahead of it (extending its queueing delay and completion time by
// exactly those bytes' transmission time); fluid arriving while the
// packet waits stays behind it, exactly as later cross packets would.
func TestFluidFlushAhead(t *testing.T) {
	sch := sim.NewScheduler()
	// 12 Mbit/s: a 1500 B packet serializes in exactly 1 ms, and the
	// matched fluid rate accumulates 1500 B per busy ms.
	l := NewLink(sch, 12e6, NewDropTail(1<<20))
	l.EnableFluid(1 << 20)
	l.AddFluidRate(12e6)
	var dels []delivery
	l.Deliver = func(p *Packet, now sim.Time) {
		dels = append(dels, delivery{p.Seq, now, p.QueueDelay})
	}
	sch.At(0, func() {
		l.Send(&Packet{Seq: 0, Size: 1500})
		l.Send(&Packet{Seq: 1, Size: 1500})
	})
	sch.At(500*sim.Microsecond, func() {
		l.Send(&Packet{Seq: 2, Size: 1500})
	})
	sch.RunUntil(10 * sim.Millisecond)
	if len(dels) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(dels))
	}
	// Packet 0 starts on an idle link with no standing fluid: done at
	// 1 ms, no queueing delay.
	if dels[0].at != sim.Millisecond || dels[0].qd != 0 {
		t.Fatalf("packet 0 delivered at %v (qd %v), want 1ms (qd 0)", dels[0].at, dels[0].qd)
	}
	// Packet 1 enqueued at t=0 before any fluid arrived: the 1500 B of
	// fluid accumulated during packet 0's transmission is all behind it,
	// so it waits only for packet 0 — done at 2 ms, 1 ms of delay.
	if dels[1].at != 2*sim.Millisecond || dels[1].qd != sim.Millisecond {
		t.Fatalf("packet 1 delivered at %v (qd %v), want 2ms (qd 1ms): fluid arriving after enqueue must not delay it",
			dels[1].at, dels[1].qd)
	}
	// Packet 2 enqueued at t=0.5 ms, when 750 B of fluid stood in the
	// queue: after packet 1 finishes at 2 ms those 750 B (0.5 ms) flush
	// ahead of it — done at 3.5 ms with 2 ms of delay (1.5 ms waiting
	// for packets 0 and 1, 0.5 ms behind its fluid).
	if dels[2].at != 3500*sim.Microsecond {
		t.Fatalf("packet 2 delivered at %v, want 3.5ms (2ms wait + 0.5ms fluid + 1ms tx)", dels[2].at)
	}
	if dels[2].qd != 2*sim.Millisecond {
		t.Fatalf("packet 2 QueueDelay = %v, want 2ms", dels[2].qd)
	}
}

// TestFluidVaryingLink runs fluid across a rate step and an outage: the
// integration must hold the conservation identity exactly, accumulate
// backlog while capacity is zero, and drain it when capacity returns.
func TestFluidVaryingLink(t *testing.T) {
	sched, err := NewRateSchedule([]RatePoint{
		{At: 0, Bps: 12e6},
		{At: 10 * sim.Millisecond, Bps: 0},
		{At: 20 * sim.Millisecond, Bps: 24e6},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sch := sim.NewScheduler()
	l := NewLinkSchedule(sch, sched, NewDropTail(1<<20))
	l.EnableFluid(1 << 20)
	l.AddFluidRate(6e6)

	sch.RunUntil(15 * sim.Millisecond)
	// 5 ms into the outage: 10 ms drained fully (6 < 12 Mbit/s), then
	// 5 ms accumulated at 6 Mbit/s = 3750 B standing.
	if bl := l.FluidBacklog(); math.Abs(bl-3750) > 1 {
		t.Fatalf("mid-outage backlog = %.0f, want 3750", bl)
	}
	sch.RunUntil(100 * sim.Millisecond)
	arrived := 6e6 / 8 * (100 * sim.Millisecond).Seconds()
	fluidConservation(t, l, arrived)
	if bl := l.FluidBacklog(); bl != 0 {
		t.Fatalf("backlog = %.0f after recovery, want 0 (24 Mbit/s drains 6)", bl)
	}
	if _, dropped := l.FluidStats(); dropped != 0 {
		t.Fatalf("dropped %.0f fluid bytes with a huge buffer", dropped)
	}
}

// TestFluidAllocFree pins the optimization's point: a link carrying
// both foreground packets and a fluid load in steady state allocates
// nothing — settlement and flush-ahead are pure arithmetic on link
// fields, and the completion events stay pooled.
func TestFluidAllocFree(t *testing.T) {
	sch := sim.NewScheduler()
	l := NewLink(sch, 96e6, NewDropTail(1<<20))
	l.EnableFluid(1 << 20)
	l.AddFluidRate(48e6)
	l.Deliver = func(p *Packet, now sim.Time) { l.Send(p) }
	for i := 0; i < 32; i++ {
		l.Send(&Packet{Seq: uint64(i), Size: 1500})
	}
	end := 50 * sim.Millisecond
	sch.RunUntil(end)
	allocs := testing.AllocsPerRun(50, func() {
		end += 10 * sim.Millisecond
		sch.RunUntil(end)
	})
	if allocs != 0 {
		t.Fatalf("steady-state fluid forwarding allocates %v per run, want 0", allocs)
	}
}

// BenchmarkFluidLink measures the saturated foreground event loop with
// a 48 Mbit/s fluid load settling on every dequeue — the hot path the
// analytic integrator must keep allocation-free. Compare with
// BenchmarkLinkPerPacket for the fluid term's per-event overhead; both
// are gated in scripts/check_bench.sh.
func BenchmarkFluidLink(b *testing.B) {
	sch := sim.NewScheduler()
	l := NewLink(sch, 96e6, NewDropTail(1<<20))
	l.EnableFluid(1 << 20)
	l.AddFluidRate(48e6)
	l.Deliver = func(p *Packet, now sim.Time) { l.Send(p) }
	for i := 0; i < 32; i++ {
		l.Send(&Packet{Seq: uint64(i), Size: 1500})
	}
	end := 10 * sim.Millisecond
	sch.RunUntil(end)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end += 64 * 125 * sim.Microsecond
		sch.RunUntil(end)
	}
	if l.DeliveredPackets == 0 {
		b.Fatal("no packets delivered")
	}
}
