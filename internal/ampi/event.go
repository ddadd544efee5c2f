package ampi

// The event-mode backend: each rank is one eventRank struct in a
// contiguous per-job store — no goroutine, no channel, no stack. A
// blocking point leaves the rank's frame stack (program.go) parked in
// its slot and returns to the owning PE's loop; message delivery
// (through the machine's Pump) resumes the interpreter on exactly
// that stack, charging the platform's EventDispatch curve per
// activation instead of a thread switch. This is BigSim's tproc store
// applied to AMPI itself, and the reason a million-rank job fits
// where the ULT backend needs a stack and a goroutine per rank.
//
// Migration: an event rank's migratable state is its continuation
// RECORD — rank number, virtual time, measured load, the pending
// receive spec, and any buffered messages, serialized faithfully
// through pup (eventRecord implements migrate.Record; 57 bytes for a
// rank with an empty mailbox). The frame stack names positions in the
// shared program tree, and the program's Local state is reachable
// from the slot: the CPC argument — because every rank runs the same
// immutable program tree, the destination PE needs no stack or code
// image, only the record. Moving a rank is therefore: batch-update
// the comm range table (one epoch bump per LB step), flip the
// engine's owner word, and round-trip the record through
// Extract/Install — no eviction, no vmem image, no adoption.
//
// Concurrency: each rank carries its own mutex. The owning PE's
// dispatch paths (dispatchStart, deliver, resumeGate) hold it while
// the interpreter runs the rank, and migration's Extract/Install
// take it too — so a mover never observes a half-run activation, and
// a dispatcher never runs a rank that is mid-flight. The lock is
// per-rank, not per-PE, because ownership itself changes: a per-PE
// lock names a PE, and the name goes stale at exactly the moment it
// matters. In-flight messages that raced a move are chased: deliver
// re-checks the owner word (one atomic load; in-process runs skip it
// until the first LB step — migEpoch gates the check — while sharded
// runs always check, since a peer's move can outrun its notice) and
// forwards losers with Endpoint.Forward.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/pup"
)

// deregBatchSize bounds how many finished ranks accumulate per PE
// before their directory entries are removed in one batch (each batch
// tombstones range-table entries in place).
const deregBatchSize = 4096

// eventRank is one rank's entire flow-of-control state: the struct
// (its size is pinned by TestEventRankFootprint) plus the frame stack,
// collective slots and whatever the program keeps in pc.Local, versus
// a goroutine, two channels, and an isomalloc stack for a ULT rank.
type eventRank struct {
	mu sync.Mutex // guards every field; held while the interpreter runs the rank

	pc eventPC

	// mbox buffers messages that arrived before a matching Recv,
	// consumed from head so takes do not shift the slice.
	mbox []*comm.Message
	head int

	// waiting is the spec of the receive the rank is parked on (valid
	// while hasWait); the frame stack says what to do with the match.
	waiting matchSpec

	// hasWait marks a rank parked on a receive; atGate a rank parked
	// at a Migrate gate, resumed by the runtime after the LB step.
	hasWait bool
	atGate  bool

	// hasReseek marks a slot freshly installed from another process
	// (shard.go): its frames were rebuilt from the shipped tree path,
	// and the next tagReseek activation resumes them.
	hasReseek bool

	done bool

	// busy accumulates Work nanoseconds since the last LB step — the
	// event-mode load measurement (the record's analogue of a thread's
	// consumed CPU time).
	busy float64

	// seq counts activations and buffered deliveries. A migration
	// record carries the seq it was extracted at; if the rank ran
	// again before the record installs (possible only when an LB step
	// races live traffic, never at a quiescent gate), the snapshot is
	// stale and Install yields to the newer in-slot state.
	seq uint64

	// sendSeq/recvSeq number the per-peer payload streams and held
	// parks out-of-order arrivals, all nil until a sharded run needs
	// them: a message routed straight to a rank's new owner can
	// overtake an older one still chasing through the old owner, and
	// matching is by send order, not arrival order (see deliver).
	sendSeq map[int]uint64
	recvSeq map[int]uint64
	held    []*comm.Message
}

// eventPC embeds the shared program context so &er.pc can be handed
// to the interpreter without a separate allocation per rank.
type eventPC = PC

// eventEngine is the per-job store and dispatcher.
type eventEngine struct {
	job  *Job
	size int
	base comm.EntityID // entity of rank 0 (carries PinnedEntity)

	// ranks points at the contiguous store; swapped to nil at
	// completion so straggler deliveries after release are safe.
	ranks atomic.Pointer[[]eventRank]

	// pes[r] is rank r's current owner PE — the engine-side mirror of
	// the comm range table, flipped (with the table, in one batch) by
	// each LB step.
	pes []atomic.Int32

	// dispatch[pe] holds Float64bits of the EventDispatch.At(flows)
	// charge per activation on that PE, recomputed per LB step as
	// residency changes.
	dispatch []atomic.Uint64

	// migEpoch counts LB steps; zero means no rank has ever moved, so
	// deliver can skip the owner check entirely — in-process runs
	// only. Sharded deliver always checks: a peer's move can be in
	// flight toward this worker while the local epoch still reads zero.
	migEpoch atomic.Uint64

	// sharded mirrors the machine: this process runs only the ranks
	// whose owner PE is local. remaining then counts LOCAL unfinished
	// ranks (adjusted by cross-process moves), and finish never
	// deregisters or releases the store (peers still forward through
	// the directory).
	sharded bool

	// lbMu serializes Rebalance steps (plan → table batch → records).
	lbMu sync.Mutex

	// pendDereg[pe] batches finished ranks' directory removals.
	// deregMu guards the batches: a rank usually finishes on its
	// owner's pump, but a racing LB step can flip the owner word
	// mid-activation, landing two pumps on the same batch.
	deregMu   sync.Mutex
	pendDereg [][]comm.EntityID

	remaining atomic.Int64

	// vts snapshots every rank's final predicted time when the last
	// rank finishes, so results survive the store's release.
	vts []float64
}

// newEventEngine builds the store, reserves a dense pinned entity-ID
// block, and registers one comm range location table and one shared
// dispatch handler range for all ranks.
func newEventEngine(j *Job) (*eventEngine, error) {
	size := j.size
	numPEs := j.m.NumPEs()
	e := &eventEngine{
		job:       j,
		size:      size,
		base:      j.m.Network().AllocFlowIDs(size),
		pes:       make([]atomic.Int32, size),
		dispatch:  make([]atomic.Uint64, numPEs),
		pendDereg: make([][]comm.EntityID, numPEs),
	}
	e.remaining.Store(int64(size))

	store := make([]eventRank, size)
	flows := make([]int, numPEs)
	pes := make([]int, size)
	for r := 0; r < size; r++ {
		pes[r] = placePE(r, size, numPEs, j.opts.BlockPlacement)
		e.pes[r].Store(int32(pes[r]))
		flows[pes[r]]++
	}
	for p := 0; p < numPEs; p++ {
		if flows[p] > 0 {
			e.dispatch[p].Store(math.Float64bits(j.m.PE(p).Prof.EventDispatch.At(flows[p])))
		}
	}
	e.sharded = j.m.Sharded()
	if e.sharded {
		local := int64(0)
		for r := 0; r < size; r++ {
			if j.m.LocalPE(pes[r]) {
				local++
			}
		}
		e.remaining.Store(local)
	}
	for r := 0; r < size; r++ {
		pc := &store[r].pc
		pc.job, pc.rank = j, r
		pc.be = e
	}
	e.ranks.Store(&store)
	if err := j.m.Network().RegisterRange(e.base, pes); err != nil {
		return nil, err
	}
	if err := j.m.RegisterEntityRange(e.base, e.base+comm.EntityID(size-1), e.deliver); err != nil {
		j.m.Network().DeregisterRange(e.base)
		return nil, err
	}
	return e, nil
}

func (e *eventEngine) idOf(rank int) comm.EntityID { return e.base + comm.EntityID(rank) }

// rankIdx inverts idOf; -1 for identities outside the job.
func (e *eventEngine) rankIdx(id comm.EntityID) int {
	if id < e.base || id >= e.base+comm.EntityID(e.size) {
		return -1
	}
	return int(id - e.base)
}

// peOf returns rank r's current owner PE.
func (e *eventEngine) peOf(r int) int { return int(e.pes[r].Load()) }

// dispatchNs returns PE p's per-activation charge.
func (e *eventEngine) dispatchNs(p int) float64 {
	return math.Float64frombits(e.dispatch[p].Load())
}

// store returns the rank slice, or nil after release.
func (e *eventEngine) store() []eventRank {
	if p := e.ranks.Load(); p != nil {
		return *p
	}
	return nil
}

// start bootstraps the job: one short-lived thread per populated PE
// dispatches the initial activation of each resident rank, so initial
// work runs on the owning PE under both Run drivers (and in parallel
// under RunParallel).
func (e *eventEngine) start() {
	if e.sharded {
		e.bootstrap(func(r int) bool { return e.job.m.LocalPE(e.peOf(r)) }, e.dispatchStart)
		return
	}
	e.bootstrap(func(r int) bool { return true }, e.dispatchStart)
}

// bootstrap runs fn(r) for every rank selected by want, grouped by
// current owner PE on a short-lived thread per PE.
func (e *eventEngine) bootstrap(want func(r int) bool, fn func(r int)) {
	numPEs := e.job.m.NumPEs()
	perPE := make([][]int, numPEs)
	for r := 0; r < e.size; r++ {
		if want(r) {
			p := e.peOf(r)
			perPE[p] = append(perPE[p], r)
		}
	}
	for p := 0; p < numPEs; p++ {
		if len(perPE[p]) == 0 {
			continue
		}
		list := perPE[p]
		pe := e.job.m.PE(p)
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{
			Strategy: e.job.opts.Strategy,
		}, func(*converse.Ctx) {
			for _, r := range list {
				fn(r)
			}
		})
		if err != nil {
			panic(fmt.Sprintf("ampi: event bootstrap on PE %d: %v", p, err))
		}
		pe.Sched.Start(th)
	}
}

// dispatchStart runs rank r's program until its first blocking point
// (or completion), charging one activation. The rank's lock is held
// for the whole activation. A rank that already has frames is running
// already: in a sharded job, a record from another process can install
// before this process's Start, and that rank resumes through its
// reseek activation, not from the program's root.
func (e *eventEngine) dispatchStart(r int) {
	er := &e.store()[r]
	er.mu.Lock()
	defer er.mu.Unlock()
	if er.done || er.pc.frames != nil {
		return
	}
	er.seq++
	p := e.peOf(r)
	e.job.m.PE(p).Clock.Advance(e.dispatchNs(p))
	er.pc.start()
	if er.pc.exec(nil) {
		e.finish(r)
	}
}

// deliver is the shared range handler: it runs on the destination
// PE's goroutine via Machine.Pump. A message either resumes the
// rank's parked frame stack (one EventDispatch activation), buffers
// in its slot, or — when the rank moved after the message was sent —
// is forwarded to chase it.
func (e *eventEngine) deliver(pe int, msg *comm.Message) {
	ranks := e.store()
	if ranks == nil {
		return
	}
	r := e.rankIdx(msg.To)
	if r < 0 {
		return
	}
	er := &ranks[r]
	er.mu.Lock()
	if msg.Tag == tagReseek {
		// Internal activation injected by ShardInstall: resume the
		// installed frames on the owning PE's own goroutine, then drain
		// any held arrivals the record's stream state made in-order
		// (the re-parked Recv may be waiting on exactly one).
		e.reseekLocked(er, pe)
		e.releaseHeldLocked(er, pe)
		er.mu.Unlock()
		return
	}
	// Owner check BEFORE the done check: free until the first move
	// ever happens, one atomic load after. A message that raced a move
	// chases the rank to its new PE; the extra hop shows up in Hops
	// and Arrival, and the directory stays O(1) arithmetic either way.
	// The order matters for sharded runs — a rank extracted to another
	// process leaves a cleared slot that is NOT done, and its
	// stragglers must forward, not buffer. Sharded runs always check:
	// migEpoch is LOCAL knowledge, and a sender that learned of a move
	// from the source can reach this worker before the record or MOVED
	// notice does — with the epoch still zero here, skipping the check
	// would absorb the message into a not-yet-installed slot. The
	// stale directory bounces it back toward the old owner, whose
	// flipped table returns it behind the record (link FIFO), so the
	// chase terminates after install.
	if (e.sharded || e.migEpoch.Load() != 0) && e.peOf(r) != pe {
		er.mu.Unlock()
		if err := e.job.m.Network().Endpoint(pe).Forward(msg); err != nil {
			return // rank finished and deregistered mid-chase; drop
		}
		return
	}
	if er.done {
		er.mu.Unlock()
		return // a straggler for a finished rank (program bug); drop like a closed mailbox
	}
	if msg.Seq != 0 {
		// Sequenced stream (sharded runs): accept strictly in send
		// order. A message that crossed a migration on the direct route
		// while an older one is still chasing through the old owner
		// would otherwise match a Recv meant for its predecessor.
		src := e.rankIdx(msg.From)
		if msg.Seq != er.recvSeq[src]+1 {
			er.held = append(er.held, msg)
			er.mu.Unlock()
			return
		}
		er.noteSeq(src, msg.Seq)
	}
	e.acceptLocked(er, pe, msg)
	e.releaseHeldLocked(er, pe)
	er.mu.Unlock()
}

// acceptLocked hands one in-order message to the rank: resume the
// interpreter if it matches the parked receive, else buffer. er.mu
// held.
func (e *eventEngine) acceptLocked(er *eventRank, pe int, msg *comm.Message) {
	er.seq++
	if er.hasWait && e.matches(er.waiting, msg) {
		er.hasWait = false
		p := e.job.m.PE(pe)
		p.Clock.Advance(e.dispatchNs(pe)) // the activation: the rank re-enters the loop
		p.Clock.AdvanceTo(msg.Arrival)
		if ovh := e.job.opts.MsgOverheadNs; ovh > 0 {
			p.Clock.Advance(ovh)
		}
		if er.pc.exec(msg) {
			e.finish(er.pc.rank)
		}
		return
	}
	er.mbox = append(er.mbox, msg)
}

// noteSeq records the acceptance of seq from peer rank src.
func (er *eventRank) noteSeq(src int, seq uint64) {
	if er.recvSeq == nil {
		er.recvSeq = make(map[int]uint64)
	}
	er.recvSeq[src] = seq
}

// releaseHeldLocked re-examines held arrivals after an acceptance
// closed a stream gap, accepting any that are now next in their
// sender's order; each acceptance can close another gap. A rank that
// finished mid-release drops the rest like its mailbox. er.mu held.
func (e *eventEngine) releaseHeldLocked(er *eventRank, pe int) {
	for progress := len(er.held) > 0; progress; {
		progress = false
		if er.done {
			er.held = nil
			return
		}
		for i, m := range er.held {
			src := e.rankIdx(m.From)
			if m.Seq != er.recvSeq[src]+1 {
				continue
			}
			er.held = append(er.held[:i], er.held[i+1:]...)
			er.noteSeq(src, m.Seq)
			e.acceptLocked(er, pe, m)
			progress = true
			break
		}
	}
}

func (e *eventEngine) matches(spec matchSpec, m *comm.Message) bool {
	if spec.tag != AnyTag && spec.tag != m.Tag {
		return false
	}
	if spec.src != AnySource && e.idOf(spec.src) != m.From {
		return false
	}
	return true
}

// take removes and returns the oldest buffered message matching spec.
func (er *eventRank) take(e *eventEngine, spec matchSpec) *comm.Message {
	for i := er.head; i < len(er.mbox); i++ {
		if e.matches(spec, er.mbox[i]) {
			m := er.mbox[i]
			copy(er.mbox[er.head+1:i+1], er.mbox[er.head:i])
			er.mbox[er.head] = nil
			er.head++
			if er.head == len(er.mbox) {
				er.mbox, er.head = er.mbox[:0], 0
			}
			return m
		}
	}
	return nil
}

// ---------------------------------------------------------------
// backend interface
//
// send/recv/work/lbpoint are always called from the interpreter
// already running under the rank's lock (dispatchStart, deliver, or
// resumeGate holds it), so they never lock the rank themselves.

func (e *eventEngine) send(pc *PC, dest, tag int, data []byte) {
	if dest < 0 || dest >= e.size {
		panic(fmt.Sprintf("ampi: program Send to rank %d of %d", dest, e.size))
	}
	p := e.job.m.PE(e.peOf(pc.rank))
	if ovh := e.job.opts.MsgOverheadNs; ovh > 0 {
		p.Clock.Advance(ovh)
	}
	msg := &comm.Message{
		To:       e.idOf(dest),
		From:     e.idOf(pc.rank),
		Tag:      tag,
		Data:     data,
		SendTime: p.Clock.Now(),
		VTime:    pc.vt,
	}
	if e.sharded {
		// Number the stream so the receiver can restore send order if
		// this message and a predecessor take different routes across a
		// migration. Non-sharded runs only move ranks at quiescent
		// gates, so their delivery order is already send order — they
		// skip the map work and their envelopes stay byte-identical.
		er := &e.store()[pc.rank]
		if er.sendSeq == nil {
			er.sendSeq = make(map[int]uint64)
		}
		er.sendSeq[dest]++
		msg.Seq = er.sendSeq[dest]
	}
	if err := e.job.m.Network().Endpoint(p.Index).Send(msg); err != nil {
		panic(fmt.Sprintf("ampi: event send: %v", err))
	}
}

func (e *eventEngine) recv(pc *PC, src, tag int) *comm.Message {
	er := &e.store()[pc.rank]
	spec := matchSpec{src: src, tag: tag}
	if m := er.take(e, spec); m != nil {
		// Consuming a buffered message is not a fresh activation (the
		// rank is already running); only the arrival constraint and
		// software overhead are charged, mirroring the thread path.
		p := e.job.m.PE(e.peOf(pc.rank))
		p.Clock.AdvanceTo(m.Arrival)
		if ovh := e.job.opts.MsgOverheadNs; ovh > 0 {
			p.Clock.Advance(ovh)
		}
		return m
	}
	er.waiting, er.hasWait = spec, true
	return nil
}

func (e *eventEngine) work(pc *PC, ns float64) {
	e.store()[pc.rank].busy += ns
	e.job.m.PE(e.peOf(pc.rank)).Clock.Advance(ns)
}

func (e *eventEngine) pe(pc *PC) int { return e.peOf(pc.rank) }

// usestack is a no-op: an event rank's entire migratable state is its
// record; there is no stack to reserve or dirty.
func (e *eventEngine) usestack(pc *PC, n uint64) {}

// lbpoint parks the rank at the job's LB gate (the record analogue of
// a thread suspending in MPI_Migrate) and registers the arrival. The
// runtime resumes it — possibly on a different PE — after the plan is
// applied. A gate sends no messages and never touches vt, so predicted
// time stays bit-identical with and without migration.
func (e *eventEngine) lbpoint(pc *PC) bool {
	e.store()[pc.rank].atGate = true
	pc.job.gateArrive()
	return false
}

// ---------------------------------------------------------------
// Migration

// eventRecord is rank r's migratable continuation record — the
// migrate.Record the LB batch hands to core.Machine.MigrateMany. Its
// Extract/Install round trip is a faithful PUP of everything a
// destination PE needs that is not shared program code: identity,
// virtual time, measured load, the pending receive spec, and
// buffered messages.
type eventRecord struct {
	e *eventEngine
	r int
}

func (rec eventRecord) ID() uint64 { return uint64(rec.e.idOf(rec.r)) }

// Extract serializes the record under the rank's lock (so a mover
// never sees a half-run activation).
func (rec eventRecord) Extract(p *pup.PUPer) error {
	ranks := rec.e.store()
	if ranks == nil {
		return fmt.Errorf("ampi: rank %d migrated after job completion", rec.r)
	}
	er := &ranks[rec.r]
	er.mu.Lock()
	defer er.mu.Unlock()
	return er.pupLocked(p)
}

// Install overwrites the rank's state from a prior Extract — the
// other half of the round trip. The slot is addressed by rank, so
// "where the record lands" is the owner word and the comm range
// table, both already flipped by the LB batch.
func (rec eventRecord) Install(data []byte) error {
	ranks := rec.e.store()
	if ranks == nil {
		return fmt.Errorf("ampi: rank %d installed after job completion", rec.r)
	}
	er := &ranks[rec.r]
	er.mu.Lock()
	defer er.mu.Unlock()
	u := pup.NewUnpacker(data)
	return er.pupLocked(u)
}

// pupLocked packs or unpacks the rank's migratable state; er.mu held.
// The frame stack (positions in the shared program tree), collective
// slots and pc.Local travel by reference — they are reachable state,
// not wire bytes; the wire image is what a distributed implementation
// would send, and its size is what the migration benchmarks report.
func (er *eventRank) pupLocked(p *pup.PUPer) error {
	rank := uint64(er.pc.rank)
	if err := p.Uint64(&rank); err != nil {
		return err
	}
	if p.IsUnpacking() && rank != uint64(er.pc.rank) {
		return fmt.Errorf("ampi: record for rank %d installed into slot %d", rank, er.pc.rank)
	}
	seq := er.seq
	if err := p.Uint64(&seq); err != nil {
		return err
	}
	if p.IsUnpacking() && (er.done || seq != er.seq) {
		// The rank ran (or finished) after this snapshot was
		// extracted — only possible when an LB step races live
		// traffic; a quiescent gate never gets here. The slot already
		// holds the newer state, so the stale image is discarded.
		return nil
	}
	if err := p.Float64(&er.pc.vt); err != nil {
		return err
	}
	if err := p.Float64(&er.busy); err != nil {
		return err
	}
	if err := p.Bool(&er.hasWait); err != nil {
		return err
	}
	if err := p.Int(&er.waiting.src); err != nil {
		return err
	}
	if err := p.Int(&er.waiting.tag); err != nil {
		return err
	}
	pending := len(er.mbox) - er.head
	if err := p.Int(&pending); err != nil {
		return err
	}
	if p.IsUnpacking() {
		er.mbox, er.head = make([]*comm.Message, pending), 0
		for i := range er.mbox {
			er.mbox[i] = &comm.Message{To: er.pc.job.ev.idOf(er.pc.rank)}
		}
	}
	for i := 0; i < pending; i++ {
		m := er.mbox[er.head+i]
		from := uint64(m.From)
		if err := p.Uint64(&from); err != nil {
			return err
		}
		m.From = comm.EntityID(from)
		if err := p.Int(&m.Tag); err != nil {
			return err
		}
		if err := p.Int(&m.Hops); err != nil {
			return err
		}
		if err := p.Float64(&m.SendTime); err != nil {
			return err
		}
		if err := p.Float64(&m.Arrival); err != nil {
			return err
		}
		if err := p.Float64(&m.VTime); err != nil {
			return err
		}
		if err := p.Bytes(&m.Data); err != nil {
			return err
		}
	}
	return nil
}

// collectEventLoads appends every live rank's (id, owner, busy)
// sample to buf — the event-mode measurement walk.
func (e *eventEngine) collectEventLoads(buf []loadbalance.Item) []loadbalance.Item {
	ranks := e.store()
	for r := range ranks {
		er := &ranks[r]
		er.mu.Lock()
		done, busy := er.done, er.busy
		er.mu.Unlock()
		if done {
			continue
		}
		buf = append(buf, loadbalance.Item{ID: uint64(e.idOf(r)), PE: e.peOf(r), Load: busy})
	}
	return buf
}

// applyMoves commits one LB step: ONE comm range-table batch (one
// epoch bump total, not one per rank), the engine's owner words and
// per-PE dispatch charges, then the record round trips through
// core.Machine.MigrateMany — which also charges the postal model for
// each record's bytes and counts it in MigrationStats, exactly as for
// a thread move. Returns ranks moved.
func (e *eventEngine) applyMoves(moves []core.Move, rmoves []comm.RangeMove) (int, error) {
	if len(moves) == 0 {
		return 0, nil
	}
	if err := e.job.m.Network().MoveRangeBatch(e.base, rmoves); err != nil {
		return 0, fmt.Errorf("ampi: event LB table batch: %w", err)
	}
	for _, mv := range rmoves {
		e.pes[mv.Index].Store(int32(mv.To))
	}
	// Residency changed: recompute each PE's activation charge from
	// the live flow counts.
	flows := make([]int, e.job.m.NumPEs())
	ranks := e.store()
	for r := range ranks {
		er := &ranks[r]
		er.mu.Lock()
		done := er.done
		er.mu.Unlock()
		if !done {
			flows[e.peOf(r)]++
		}
	}
	for p := range flows {
		if flows[p] > 0 {
			e.dispatch[p].Store(math.Float64bits(e.job.m.PE(p).Prof.EventDispatch.At(flows[p])))
		}
	}
	e.migEpoch.Add(1)
	moved, err := e.job.m.MigrateMany(moves)
	if err != nil {
		return moved, fmt.Errorf("ampi: event LB record batch: %w", err)
	}
	return moved, nil
}

// resetLoads zeroes the per-rank busy measurements after an LB step.
func (e *eventEngine) resetLoads() {
	ranks := e.store()
	for r := range ranks {
		er := &ranks[r]
		er.mu.Lock()
		er.busy = 0
		er.mu.Unlock()
	}
}

// resumeGate re-dispatches every rank parked at the LB gate, on its
// (possibly new) owner PE, charging one activation each.
func (e *eventEngine) resumeGate() {
	ranks := e.store()
	e.bootstrap(func(r int) bool {
		er := &ranks[r]
		er.mu.Lock()
		parked := er.atGate
		er.mu.Unlock()
		return parked
	}, e.dispatchResume)
}

// dispatchResume resumes rank r past its gate under its lock.
func (e *eventEngine) dispatchResume(r int) {
	er := &e.store()[r]
	er.mu.Lock()
	defer er.mu.Unlock()
	if !er.atGate {
		return
	}
	er.atGate = false
	er.seq++
	p := e.peOf(r)
	e.job.m.PE(p).Clock.Advance(e.dispatchNs(p))
	if er.pc.exec(nil) {
		e.finish(r)
	}
}

// ---------------------------------------------------------------
// Completion

// finish retires rank r: its slot's buffers, frames, and program
// state are released immediately, and its directory entry
// joins the owning PE's batched deregistration — so a completed
// million-rank job walks the Machine back to its idle footprint.
// Called with er.mu held (from within the rank's final activation).
func (e *eventEngine) finish(r int) {
	er := &e.store()[r]
	er.done = true
	er.mbox, er.head = nil, 0
	er.hasWait, er.atGate = false, false
	er.pc.frames, er.pc.reqs, er.pc.colls = nil, nil, nil
	er.pc.Local = nil
	er.sendSeq, er.recvSeq, er.held = nil, nil, nil
	if e.sharded {
		// Peers may still Forward stragglers through this worker's
		// directory, so entries are never deregistered and the store
		// is never released; the process exit reclaims both. remaining
		// counts local ranks only — the shard layer's termination
		// barrier combines the per-worker Done() signals.
		e.remaining.Add(-1)
		return
	}
	p := e.peOf(r)
	e.deregMu.Lock()
	e.pendDereg[p] = append(e.pendDereg[p], e.idOf(r))
	var flush []comm.EntityID
	if len(e.pendDereg[p]) >= deregBatchSize {
		flush = e.pendDereg[p]
		e.pendDereg[p] = make([]comm.EntityID, 0, deregBatchSize)
	}
	e.deregMu.Unlock()
	if flush != nil {
		e.job.m.Network().DeregisterBatch(flush)
	}
	if e.remaining.Add(-1) == 0 {
		e.shutdown(r)
	}
}

// shutdown runs once, on whichever PE finished the last rank: the
// atomic decrement chain orders it after every other PE's final slot
// writes. It snapshots results, flushes every deregistration batch,
// removes the location table and the shared handler range, and
// releases the store.
// caller is the rank whose final activation triggered shutdown: its
// er.mu is already held, so the snapshot loop must not re-lock it.
// Every other rank is done too, but a straggling external Rebalance
// may still hold (or be about to take) its lock, so the loop locks
// around each read.
func (e *eventEngine) shutdown(caller int) {
	ranks := e.store()
	e.vts = make([]float64, e.size)
	for r := range ranks {
		if r != caller {
			ranks[r].mu.Lock()
		}
		e.vts[r] = ranks[r].pc.vt
		if r != caller {
			ranks[r].mu.Unlock()
		}
	}
	e.deregMu.Lock()
	for p := range e.pendDereg {
		e.job.m.Network().DeregisterBatch(e.pendDereg[p])
		e.pendDereg[p] = nil
	}
	e.deregMu.Unlock()
	e.job.m.DeregisterEntityRange(e.base, e.base+comm.EntityID(e.size-1))
	e.job.m.Network().DeregisterRange(e.base)
	e.ranks.Store(nil)
}

// vtOf returns rank r's predicted time, live or snapshotted.
func (e *eventEngine) vtOf(r int) float64 {
	if ranks := e.store(); ranks != nil {
		er := &ranks[r]
		er.mu.Lock()
		defer er.mu.Unlock()
		return er.pc.vt
	}
	return e.vts[r]
}
