package netem

import "nimbus/internal/sim"

// Queue is the buffering discipline at a hop. Enqueue returns false when
// the packet is dropped (tail drop or AQM drop). Dequeue returns nil
// when empty. DropCount is the discipline's total drops — enqueue
// refusals (which Link.DroppedPackets also sees) plus any dequeue-time
// drops (CoDel's control-law drops happen inside Dequeue and never reach
// the link's counter), so per-hop drop metrics read it instead of the
// link counter.
type Queue interface {
	Enqueue(p *Packet, now sim.Time) bool
	Dequeue(now sim.Time) *Packet
	BytesQueued() int
	Len() int
	DropCount() uint64
}

// FluidAware is implemented by disciplines that can count an external
// byte occupancy — a link's fluid cross-traffic backlog (Link.EnableFluid)
// — in their admission decision, so foreground packets see the same drop
// pressure the equivalent packetized background load would create.
// Disciplines whose drop law reads per-packet state the fluid term cannot
// feed (CoDel sojourn times, PIE's per-enqueue drop probability)
// deliberately do not implement it; on those queues fluid load consumes
// buffer room and link time but is invisible to the AQM law — one of the
// approximation's documented fidelity boundaries.
type FluidAware interface {
	Queue
	SetExtraOccupancy(extra func() int)
}

// fifo is the common FIFO storage used by all queue disciplines: a ring
// buffer with power-of-two capacity, so steady-state enqueue/dequeue does
// no copying and no allocation once the ring has grown to the working set.
type fifo struct {
	ring  []*Packet // len(ring) is a power of two (or zero before first push)
	head  int       // index of the oldest packet
	count int
	bytes int
}

func (q *fifo) push(p *Packet) {
	if q.count == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.count)&(len(q.ring)-1)] = p
	q.count++
	q.bytes += p.Size
}

func (q *fifo) grow() {
	n := len(q.ring) * 2
	if n == 0 {
		n = 64
	}
	next := make([]*Packet, n)
	for i := 0; i < q.count; i++ {
		next[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring = next
	q.head = 0
}

func (q *fifo) pop() *Packet {
	if q.count == 0 {
		return nil
	}
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.count--
	q.bytes -= p.Size
	return p
}

// at returns the i-th queued packet (0 = head) without removing it.
func (q *fifo) at(i int) *Packet { return q.ring[(q.head+i)&(len(q.ring)-1)] }

func (q *fifo) len() int    { return q.count }
func (q *fifo) queued() int { return q.bytes }

// DropTail is a FIFO queue with a fixed byte capacity.
type DropTail struct {
	Capacity int // bytes
	q        fifo
	Drops    uint64
	// extra, when set, reports external bytes (a link's fluid backlog)
	// that count toward admission occupancy (FluidAware).
	extra func() int
}

// NewDropTail returns a drop-tail queue with the given byte capacity.
func NewDropTail(capacityBytes int) *DropTail {
	return &DropTail{Capacity: capacityBytes}
}

// Enqueue adds p unless the buffer would overflow.
func (d *DropTail) Enqueue(p *Packet, now sim.Time) bool {
	occ := d.q.queued()
	if d.extra != nil {
		occ += d.extra()
	}
	if occ+p.Size > d.Capacity {
		d.Drops++
		return false
	}
	p.EnqueuedAt = now
	d.q.push(p)
	return true
}

// Dequeue removes and returns the head packet, recording its queueing
// delay. The delay accumulates across hops (a packet starts at zero when
// sent), so on multi-hop routes QueueDelay is the route's total queueing.
func (d *DropTail) Dequeue(now sim.Time) *Packet {
	p := d.q.pop()
	if p != nil {
		p.QueueDelay += now - p.EnqueuedAt
	}
	return p
}

// BytesQueued returns the queue occupancy in bytes. The external fluid
// occupancy is not included: the link tracks its backlog separately
// (Link.FluidBacklog).
func (d *DropTail) BytesQueued() int { return d.q.queued() }

// SetExtraOccupancy registers an external occupancy source counted by
// Enqueue's admission check (FluidAware).
func (d *DropTail) SetExtraOccupancy(extra func() int) { d.extra = extra }

// BytesForFlow returns the bytes currently queued that belong to one
// flow. O(queue length); used by experiments that decompose queueing
// delay into self-inflicted and cross-traffic components (Fig. 3).
func (d *DropTail) BytesForFlow(id FlowID) int {
	total := 0
	for i := 0; i < d.q.len(); i++ {
		if p := d.q.at(i); p.Flow == id {
			total += p.Size
		}
	}
	return total
}

// Len returns the number of queued packets.
func (d *DropTail) Len() int { return d.q.len() }

// DropCount returns the total tail drops.
func (d *DropTail) DropCount() uint64 { return d.Drops }

// BufferBytesForDelay returns the buffer size in bytes corresponding to
// "ms milliseconds of buffering" at rateBps (bits/s), the way the paper
// specifies buffers (e.g. "100 ms buffering" on a 96 Mbit/s link = 2 BDP
// at 50 ms RTT).
func BufferBytesForDelay(rateBps float64, d sim.Time) int {
	return int(rateBps / 8 * d.Seconds())
}
