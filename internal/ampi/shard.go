package ampi

// Cross-process migration for sharded event jobs: the continuation
// analogue of shipping a thread's stack image over the socket. An
// in-process move rides eventRecord — the frame stack and pc.Local
// stay reachable by reference. Across an OS process boundary nothing
// is reachable, so the record must carry everything the destination
// needs to REBUILD the continuation:
//
//   - the rank's tree PATH — the index of every frame below the top
//     (the running child of each enclosing Seq, the iteration of each
//     For). A frame stack is positions in the shared immutable
//     program, and every worker holds the identical tree, so the path
//     IS the continuation: the destination rebuilds the frames by
//     descending the tree along it (calling a Call's generator again
//     where the path passes one), with the parked Recv on top. No
//     completed work re-runs and virtual time is untouched.
//   - the parked Recv's match spec, virtual time, measured load, and
//     buffered messages (the same fields eventRecord pups).
//   - pc.Local, serialized by the program's Options.LocalPUP hook.
//
// Only a rank parked at a plain Recv can cross: a collective wait or
// Waitall holds per-execution state (a schedule cursor and
// accumulator, a request slice) that the path alone does not carry,
// and ShardExtract refuses.
//
// Protocol (driven by the shard orchestration layer): the source
// worker calls ShardExtract — which atomically flips the directory,
// owner word, and epoch, so stragglers start chasing over the socket —
// and ships the record bytes to the destination worker (a control
// frame) plus a move notice to every other worker (ShardNoteMove).
// The destination calls ShardInstall, which rebuilds the frames,
// merges the record's pending messages AHEAD of anything that already
// chased its way into the slot (the record's are older: they arrived
// before the move), then injects a tagReseek activation through the
// normal delivery path so the rank resumes on the owning PE's own
// goroutine.
// Link FIFO guarantees the destination sees the record before any
// message the source forwards after flipping its table. It cannot
// order two different routes, though: a sender that learns the new
// address can reach it directly before its older message finishes
// chasing through the old owner. The per-pair stream numbers the
// record carries (sendSeq/recvSeq, stamped on every sharded payload)
// let deliver hold such an overtaker until the gap fills, so
// matching stays in send order across any number of moves.

import (
	"fmt"
	"sort"

	"migflow/internal/comm"
	"migflow/internal/pup"
)

// tagReseek is the internal activation injected by ShardInstall
// (user tags are ≥ 0; collective tags live in the -100 block).
const tagReseek = -150

// shardPathMax bounds a record's claimed path length (hostile-input
// guard; real programs nest a handful of Seq/For levels).
const shardPathMax = 1 << 16

// ShardOwns reports whether rank r currently resides in this process
// (sharded event jobs).
func (j *Job) ShardOwns(r int) bool {
	e := j.ev
	if e == nil || !e.sharded || r < 0 || r >= e.size {
		return false
	}
	return j.m.LocalPE(e.peOf(r))
}

// ShardMigratable reports whether rank r could be extracted right
// now: resident here, unfinished, and parked at a plain blocking Recv
// with no in-flight collectives.
func (j *Job) ShardMigratable(r int) bool {
	e := j.ev
	if e == nil || !e.sharded || r < 0 || r >= e.size {
		return false
	}
	ranks := e.store()
	if ranks == nil || !j.m.LocalPE(e.peOf(r)) {
		return false
	}
	er := &ranks[r]
	er.mu.Lock()
	defer er.mu.Unlock()
	return !er.done && er.hasWait && er.pc.parkedAtRecv() &&
		!er.pc.collsInFlight() && (er.pc.Local == nil || j.opts.LocalPUP != nil)
}

// ShardExtract serializes rank's continuation record for another
// process and commits the move: directory, owner word, and epoch flip
// before it returns, so every later message to the rank forwards over
// the socket. The caller ships the returned bytes to the worker
// owning toPE (ShardInstall) and notifies the rest (ShardNoteMove).
func (j *Job) ShardExtract(rank, toPE int) ([]byte, error) {
	e := j.ev
	if e == nil || !e.sharded {
		return nil, fmt.Errorf("ampi: ShardExtract needs a sharded event job")
	}
	if rank < 0 || rank >= e.size {
		return nil, fmt.Errorf("ampi: ShardExtract: rank %d of %d", rank, e.size)
	}
	if toPE < 0 || toPE >= j.m.NumPEs() {
		return nil, fmt.Errorf("ampi: ShardExtract: PE %d out of range", toPE)
	}
	if j.m.LocalPE(toPE) {
		return nil, fmt.Errorf("ampi: ShardExtract: PE %d is local; use Rebalance for in-process moves", toPE)
	}
	ranks := e.store()
	er := &ranks[rank]
	er.mu.Lock()
	defer er.mu.Unlock()
	srcPE := e.peOf(rank)
	if !j.m.LocalPE(srcPE) {
		return nil, fmt.Errorf("ampi: ShardExtract: rank %d resides on PE %d, not in this process", rank, srcPE)
	}
	if er.done {
		return nil, fmt.Errorf("ampi: ShardExtract: rank %d already finished", rank)
	}
	if !er.hasWait || !er.pc.parkedAtRecv() {
		return nil, fmt.Errorf("ampi: ShardExtract: rank %d is not parked at a plain Recv", rank)
	}
	if er.pc.collsInFlight() {
		return nil, fmt.Errorf("ampi: ShardExtract: rank %d has in-flight nonblocking collectives", rank)
	}
	if er.pc.Local != nil && j.opts.LocalPUP == nil {
		return nil, fmt.Errorf("ampi: ShardExtract: rank %d has program state but the job has no LocalPUP", rank)
	}

	p := pup.NewGrowPacker()
	depart := j.m.PE(srcPE).Clock.Now()
	if err := e.packWireLocked(p, er, toPE, depart); err != nil {
		return nil, err
	}
	data := p.PackedBytes()

	// Commit: one table batch + owner word + epoch bump, exactly the
	// in-process LB sequence, after which stragglers chase via Forward.
	if err := j.m.Network().MoveRangeBatch(e.base, []comm.RangeMove{{Index: rank, To: toPE}}); err != nil {
		return nil, fmt.Errorf("ampi: ShardExtract: %w", err)
	}
	e.pes[rank].Store(int32(toPE))
	e.migEpoch.Add(1)
	er.hasWait = false
	er.waiting = matchSpec{}
	er.mbox, er.head = nil, 0
	er.sendSeq, er.recvSeq, er.held = nil, nil, nil
	er.pc.frames, er.pc.colls = nil, nil
	er.pc.Local = nil
	er.busy = 0
	e.remaining.Add(-1)
	return data, nil
}

// ShardNoteMove applies another process's move to this worker's
// directory and owner word (idempotent). Workers not party to a
// migration still need it so their senders address the new owner.
func (j *Job) ShardNoteMove(rank, toPE int) error {
	e := j.ev
	if e == nil || !e.sharded {
		return fmt.Errorf("ampi: ShardNoteMove needs a sharded event job")
	}
	if rank < 0 || rank >= e.size || toPE < 0 || toPE >= j.m.NumPEs() {
		return fmt.Errorf("ampi: ShardNoteMove: rank %d → PE %d out of range", rank, toPE)
	}
	if e.peOf(rank) == toPE {
		return nil
	}
	if err := j.m.Network().MoveRangeBatch(e.base, []comm.RangeMove{{Index: rank, To: toPE}}); err != nil {
		return fmt.Errorf("ampi: ShardNoteMove: %w", err)
	}
	e.pes[rank].Store(int32(toPE))
	e.migEpoch.Add(1)
	return nil
}

// ShardInstall adopts a record extracted by another process: it flips
// the local directory, rebuilds the rank's slot and frame stack,
// merges the record's buffered messages ahead of any that chased here
// first, charges the machine's migration bookkeeping, and schedules
// the reseek activation on the owning PE. It may run before this
// process's Start: the rebuilt frames mark the rank as running, so
// Start leaves it to the reseek. Returns the installed rank.
func (j *Job) ShardInstall(data []byte) (int, error) {
	e := j.ev
	if e == nil || !e.sharded {
		return -1, fmt.Errorf("ampi: ShardInstall needs a sharded event job")
	}
	u := pup.NewUnpacker(data)
	rec, err := e.unpackWire(u)
	if err != nil {
		return -1, fmt.Errorf("ampi: ShardInstall: %w", err)
	}
	if !j.m.LocalPE(rec.toPE) {
		return -1, fmt.Errorf("ampi: ShardInstall: record for PE %d landed in the wrong process", rec.toPE)
	}
	var local any
	if rec.hasLocal {
		if j.opts.LocalPUP == nil {
			return -1, fmt.Errorf("ampi: ShardInstall: record carries program state but the job has no LocalPUP")
		}
		lu := pup.NewUnpacker(rec.localImg)
		if local, err = j.opts.LocalPUP(lu, nil); err != nil {
			return -1, fmt.Errorf("ampi: ShardInstall: LocalPUP: %w", err)
		}
	}

	if e.peOf(rec.rank) != rec.toPE {
		if err := j.m.Network().MoveRangeBatch(e.base, []comm.RangeMove{{Index: rec.rank, To: rec.toPE}}); err != nil {
			return -1, fmt.Errorf("ampi: ShardInstall: %w", err)
		}
		e.pes[rec.rank].Store(int32(rec.toPE))
	}
	e.migEpoch.Add(1)

	er := &e.store()[rec.rank]
	er.mu.Lock()
	er.pc.Local = local
	if err := er.pc.rebuild(rec.path); err != nil {
		er.pc.Local = nil
		er.mu.Unlock()
		return -1, fmt.Errorf("ampi: ShardInstall: %w", err)
	}
	er.pc.vt = rec.vt
	er.busy = rec.busy
	er.waiting = rec.waiting
	er.hasWait = false
	er.hasReseek = true
	if len(rec.pending) > 0 {
		// The record's messages arrived at the source before the move;
		// anything already buffered here chased the table flip and is
		// strictly younger. Order = record first.
		er.mbox = append(rec.pending, er.mbox[er.head:]...)
		er.head = 0
	}
	// Merge, don't overwrite: a message can slip into the slot between
	// the directory flip above and this rebuild (deliver's owner check
	// passes, the slot is still empty), advancing a stream past the
	// record's snapshot or parking in held. Per-key max keeps both
	// sides' acceptances; the release then drains anything the merged
	// state made in-order — hasWait is false here, so releases only
	// buffer into mbox for the reseek to consume.
	er.sendSeq = mergeSeqMax(er.sendSeq, rec.sendSeq)
	er.recvSeq = mergeSeqMax(er.recvSeq, rec.recvSeq)
	er.held = append(er.held, rec.held...)
	e.releaseHeldLocked(er, rec.toPE)
	er.mu.Unlock()
	e.remaining.Add(1)
	j.m.FinishRemoteMigration(e.idOf(rec.rank), rec.toPE, rec.depart, len(data))

	// The reseek runs as a normal delivery on the owning PE's
	// goroutine — ShardInstall may be called from a transport reader.
	act := &comm.Message{To: e.idOf(rec.rank), From: e.idOf(rec.rank), Tag: tagReseek}
	if err := j.m.Network().DeliverLocal(rec.toPE, []*comm.Message{act}); err != nil {
		return rec.rank, fmt.Errorf("ampi: ShardInstall: scheduling reseek: %w", err)
	}
	return rec.rank, nil
}

// reseekLocked resumes an installed rank at its rebuilt frames: the
// Recv on top runs again, so an already-delivered match is consumed
// immediately, otherwise the rank re-parks. One activation is
// charged, like any dispatch; virtual time only moves if a message is
// consumed — the same instants it would have moved at on the source.
// er.mu held.
func (e *eventEngine) reseekLocked(er *eventRank, pe int) {
	if !er.hasReseek || er.done {
		return
	}
	er.hasReseek = false
	er.seq++
	e.job.m.PE(pe).Clock.Advance(e.dispatchNs(pe))
	if er.pc.exec(nil) {
		e.finish(er.pc.rank)
	}
}

// rebuild sets the rank's frames from a shipped path by descending the
// shared program along it; the statement the path ends at must be the
// Recv the rank was parked on.
func (pc *PC) rebuild(path []int32) error {
	frames := make([]frame, 0, max(pc.job.depth, len(path)+1))
	node := pc.job.prog
	for _, v := range path {
		node = pc.resolve(node)
		i := int(v)
		var child Proc
		switch p := node.(type) {
		case *seqProc:
			if i < 0 || i >= len(p.ps) {
				return fmt.Errorf("record path index %d outside a %d-statement Seq", i, len(p.ps))
			}
			child = p.ps[i]
		case *forProc:
			if i < 0 || i >= len(p.bodies) {
				return fmt.Errorf("record path iteration %d outside a %d-iteration For", i, len(p.bodies))
			}
			child = p.bodies[i]
		default:
			return fmt.Errorf("record path descends into a %T", node)
		}
		frames = append(frames, frame{node: node, i: i})
		node = child
	}
	node = pc.resolve(node)
	if _, ok := node.(*recvProc); !ok {
		return fmt.Errorf("record path ends at a %T, not a Recv", node)
	}
	pc.frames = append(frames, frame{node: node})
	return nil
}

// resolve expands Call statements, as the interpreter does on reaching
// them.
func (pc *PC) resolve(node Proc) Proc {
	for {
		c, ok := node.(callProc)
		if !ok {
			return node
		}
		node = c.gen(pc)
	}
}

// shardWire is the decoded cross-process record.
type shardWire struct {
	rank     int
	toPE     int
	depart   float64
	vt       float64
	busy     float64
	waiting  matchSpec
	path     []int32
	hasLocal bool
	localImg []byte
	pending  []*comm.Message
	held     []*comm.Message
	sendSeq  map[int]uint64
	recvSeq  map[int]uint64
}

// recMsgMin is the minimum encoded size of one buffered message:
// From, Tag, Hops, Seq, three timestamps, and the data length prefix.
const recMsgMin = 7*8 + 4

// pupRecMsg moves one buffered message through a record (To is
// implied by the record's rank and restored by the caller).
func pupRecMsg(p *pup.PUPer, m *comm.Message) error {
	from := uint64(m.From)
	if err := p.Uint64(&from); err != nil {
		return err
	}
	if err := p.Int(&m.Tag); err != nil {
		return err
	}
	if err := p.Int(&m.Hops); err != nil {
		return err
	}
	if err := p.Uint64(&m.Seq); err != nil {
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
	if p.IsUnpacking() {
		m.From = comm.EntityID(from)
	}
	return nil
}

// mergeSeqMax folds src into dst taking the per-key max, reusing
// whichever map exists. Install uses it so stream numbering survives
// both the record's snapshot and any acceptance that beat the record
// into the slot.
func mergeSeqMax(dst, src map[int]uint64) map[int]uint64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		return src
	}
	for k, v := range src {
		if v > dst[k] {
			dst[k] = v
		}
	}
	return dst
}

// packSeqMap writes a per-peer stream map sorted by rank, so
// identical state always packs identically.
func packSeqMap(p *pup.PUPer, mp map[int]uint64) error {
	n := len(mp)
	if err := p.Int(&n); err != nil {
		return err
	}
	ranks := make([]int, 0, n)
	for r := range mp {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		k, v := r, mp[r]
		if err := p.Int(&k); err != nil {
			return err
		}
		if err := p.Uint64(&v); err != nil {
			return err
		}
	}
	return nil
}

// unpackSeqMap reads a stream map, validating the claimed entry count
// against the bytes remaining and every rank key against the job.
func (e *eventEngine) unpackSeqMap(p *pup.PUPer) (map[int]uint64, error) {
	var n int
	if err := p.Int(&n); err != nil {
		return nil, err
	}
	if n < 0 || n > p.Remaining()/16 {
		// Division, not n*16: a hostile count near MaxInt64 would
		// overflow the product and slip past the bound.
		return nil, fmt.Errorf("record claims %d stream entries with %d bytes remaining", n, p.Remaining())
	}
	if n == 0 {
		return nil, nil
	}
	mp := make(map[int]uint64, n)
	for i := 0; i < n; i++ {
		var k int
		var v uint64
		if err := p.Int(&k); err != nil {
			return nil, err
		}
		if err := p.Uint64(&v); err != nil {
			return nil, err
		}
		if k < 0 || k >= e.size {
			return nil, fmt.Errorf("record stream entry for rank %d of %d", k, e.size)
		}
		mp[k] = v
	}
	return mp, nil
}

// packWireLocked serializes er for another process; er.mu held.
func (e *eventEngine) packWireLocked(p *pup.PUPer, er *eventRank, toPE int, depart float64) error {
	rank, to := uint64(er.pc.rank), uint64(toPE)
	if err := p.Uint64(&rank); err != nil {
		return err
	}
	if err := p.Uint64(&to); err != nil {
		return err
	}
	if err := p.Float64(&depart); err != nil {
		return err
	}
	if err := p.Float64(&er.pc.vt); err != nil {
		return err
	}
	if err := p.Float64(&er.busy); err != nil {
		return err
	}
	if err := p.Int(&er.waiting.src); err != nil {
		return err
	}
	if err := p.Int(&er.waiting.tag); err != nil {
		return err
	}
	// The path: every frame's index below the parked Recv on top.
	path := er.pc.frames[:len(er.pc.frames)-1]
	plen := len(path)
	if err := p.Int(&plen); err != nil {
		return err
	}
	for _, f := range path {
		if err := p.Int(&f.i); err != nil {
			return err
		}
	}
	hasLocal := er.pc.Local != nil
	if err := p.Bool(&hasLocal); err != nil {
		return err
	}
	if hasLocal {
		lp := pup.NewGrowPacker()
		if _, err := e.job.opts.LocalPUP(lp, er.pc.Local); err != nil {
			return fmt.Errorf("ampi: LocalPUP: %w", err)
		}
		img := lp.PackedBytes()
		if err := p.Bytes(&img); err != nil {
			return err
		}
	}
	pending := len(er.mbox) - er.head
	if err := p.Int(&pending); err != nil {
		return err
	}
	for i := 0; i < pending; i++ {
		if err := pupRecMsg(p, er.mbox[er.head+i]); err != nil {
			return err
		}
	}
	nheld := len(er.held)
	if err := p.Int(&nheld); err != nil {
		return err
	}
	for _, m := range er.held {
		if err := pupRecMsg(p, m); err != nil {
			return err
		}
	}
	if err := packSeqMap(p, er.sendSeq); err != nil {
		return err
	}
	return packSeqMap(p, er.recvSeq)
}

// unpackWire decodes a record, validating every count against the
// bytes remaining before allocating (same hardening as the envelope
// codec — records cross the same untrusted wire).
func (e *eventEngine) unpackWire(p *pup.PUPer) (*shardWire, error) {
	rec := &shardWire{}
	var rank, to uint64
	if err := p.Uint64(&rank); err != nil {
		return nil, err
	}
	if err := p.Uint64(&to); err != nil {
		return nil, err
	}
	if rank >= uint64(e.size) {
		return nil, fmt.Errorf("record for rank %d of %d", rank, e.size)
	}
	if to >= uint64(e.job.m.NumPEs()) {
		return nil, fmt.Errorf("record for PE %d of %d", to, e.job.m.NumPEs())
	}
	rec.rank, rec.toPE = int(rank), int(to)
	if err := p.Float64(&rec.depart); err != nil {
		return nil, err
	}
	if err := p.Float64(&rec.vt); err != nil {
		return nil, err
	}
	if err := p.Float64(&rec.busy); err != nil {
		return nil, err
	}
	if err := p.Int(&rec.waiting.src); err != nil {
		return nil, err
	}
	if err := p.Int(&rec.waiting.tag); err != nil {
		return nil, err
	}
	var plen int
	if err := p.Int(&plen); err != nil {
		return nil, err
	}
	if plen < 0 || plen > shardPathMax || plen*8 > p.Remaining() {
		return nil, fmt.Errorf("record claims path of %d frames with %d bytes remaining", plen, p.Remaining())
	}
	rec.path = make([]int32, plen)
	for i := range rec.path {
		var v int
		if err := p.Int(&v); err != nil {
			return nil, err
		}
		rec.path[i] = int32(v)
	}
	if err := p.Bool(&rec.hasLocal); err != nil {
		return nil, err
	}
	if rec.hasLocal {
		if err := p.Bytes(&rec.localImg); err != nil {
			return nil, err
		}
	}
	var err error
	if rec.pending, err = e.unpackMsgs(p, rec.rank, "pending"); err != nil {
		return nil, err
	}
	if rec.held, err = e.unpackMsgs(p, rec.rank, "held"); err != nil {
		return nil, err
	}
	if rec.sendSeq, err = e.unpackSeqMap(p); err != nil {
		return nil, err
	}
	if rec.recvSeq, err = e.unpackSeqMap(p); err != nil {
		return nil, err
	}
	if p.Remaining() != 0 {
		return nil, fmt.Errorf("record carries %d trailing bytes", p.Remaining())
	}
	return rec, nil
}

// unpackMsgs reads one buffered-message list, validating the claimed
// count against the bytes remaining before sizing the slice.
func (e *eventEngine) unpackMsgs(p *pup.PUPer, rank int, what string) ([]*comm.Message, error) {
	var n int
	if err := p.Int(&n); err != nil {
		return nil, err
	}
	if n < 0 || n > p.Remaining()/recMsgMin {
		// Division, not n*recMsgMin, so a hostile count cannot overflow
		// past the bound.
		return nil, fmt.Errorf("record claims %d %s messages with %d bytes remaining", n, what, p.Remaining())
	}
	if n == 0 {
		return nil, nil
	}
	msgs := make([]*comm.Message, n)
	for i := range msgs {
		m := &comm.Message{To: e.idOf(rank)}
		if err := pupRecMsg(p, m); err != nil {
			return nil, err
		}
		msgs[i] = m
	}
	return msgs, nil
}
