package ampi

// Continuation programs: the CPC idea ("compiling blocking threads to
// events through continuations") applied to AMPI ranks. A Program is
// an immutable tree of Proc combinators — Do/Seq/For/Recv/collectives
// — shared by every rank of a job, the way bigsim.stepBody is shared
// by both BigSim backends. The SAME tree is interpreted by two
// backends selected with Options.Mode:
//
//   - ModeULT: each rank is a migratable user-level thread; Recv and
//     the collectives block the thread exactly like the classic Rank
//     API, and each activation pays the platform's thread-switch
//     curve.
//   - ModeEvent: each rank is a small state struct in a contiguous
//     per-job store (event.go); every blocking point parks the rank
//     and returns to the owning PE's loop, and each activation pays
//     the (much cheaper) EventDispatch curve.
//
// A continuation is data, not a closure: a rank's position in the
// shared tree is a stack of frames, one (node, index) pair per active
// statement from the root down to the statement running or parked
// now. One loop, PC.exec, advances that stack for both backends; a
// parked event rank holds its frames and nothing else, and resuming
// it is exec again with the matching message.
//
// Because all communication, computation, and virtual-time accounting
// live in this shared layer, a program's predicted virtual time (VT)
// and its message counts are bit-identical across mode × PE count —
// the property TestCrossBackendEquivalence enforces. Only what the
// *simulating* machine is charged (PE clocks, wall time, memory)
// depends on the mode.

import (
	"fmt"

	"migflow/internal/comm"
	"migflow/internal/converse"
	"migflow/internal/core"
	"migflow/internal/loadbalance"
	"migflow/internal/vmem"
)

// Proc is one statement of a continuation program: a node of the
// immutable tree every rank of a job shares. Nodes hold no per-rank
// state — a rank's progress through the tree lives in its frames.
type Proc interface{ isProc() }

// backend is what the interpreter needs from the flow-of-control
// mechanism behind a rank. Exactly two implementations exist: ultBE
// (thread blocks) and *eventEngine (rank parks).
type backend interface {
	// send transmits data to dest, stamping pc.vt into the message's
	// VTime and charging the simulating PE's clock for send overhead.
	send(pc *PC, dest, tag int, data []byte)
	// recv returns the oldest message matching (src, tag), and
	// synchronizes the simulating PE clock with its arrival. The ULT
	// backend blocks the thread until one arrives; the event backend
	// returns nil when none is buffered, leaving the rank parked on
	// the spec — delivery later resumes exec with the match.
	recv(pc *PC, src, tag int) *comm.Message
	// work charges ns nanoseconds of computation to the simulating PE.
	work(pc *PC, ns float64)
	// pe reports which simulating PE the rank currently runs on —
	// placement-dependent by design (per-PE makespan accounting).
	pe(pc *PC) int
	// lbpoint registers the rank at the job's collective LB gate. The
	// ULT backend suspends the thread until the rebalance is done and
	// returns true; the event backend parks the rank and returns
	// false — the runtime resumes it after the rebalance, possibly on
	// another PE.
	lbpoint(pc *PC) bool
	// usestack models per-rank live frames: ULT ranks push and dirty
	// a frame of n bytes (which every later migration must carry);
	// event ranks have no stack, so it is a no-op — the asymmetry the
	// migration-cost comparison measures.
	usestack(pc *PC, n uint64)
}

// PC is one rank's program context: its identity, its predicted
// virtual time, its position in the program, and its backend. Program
// callbacks receive the PC and may call its Send/Work/Isend/Irecv
// methods; blocking is expressed only through Proc combinators, never
// by a callback that waits.
type PC struct {
	job  *Job
	rank int

	// vt is the rank's predicted virtual time in nanoseconds — the
	// mode- and placement-independent clock of the *target* program,
	// advanced by Work, send overhead, and message arrival
	// constraints. It is deliberately distinct from the simulating PE
	// clocks, which depend on mode and rank placement.
	vt float64

	// Local is the rank's program-private state (halo buffers, loop
	// accumulators). The event engine frees it when the rank's program
	// completes.
	Local any

	be backend

	// frames is the rank's continuation: frames[0] is the program
	// root, the top frame the statement running or parked now. Nil
	// before the rank starts and after it finishes.
	frames []frame

	// reqs holds the requests of the Waitall at the top of the stack
	// (a leaf, so at most one is active).
	reqs []*Req

	// colls holds the rank's collective runs, one slot per site in
	// flight. Slots (and their schedule buffers) are reused from one
	// execution to the next, and, like Local, they ride the rank's
	// slot, so an outstanding nonblocking collective survives
	// in-process migration between its start and wait halves.
	colls []collRun
}

// frame is one active statement: node, plus a position whose meaning
// depends on the node — the running child of a Seq, the iteration of
// a For, 1 + the request a Waitall is on, or whether a Migrate gate
// has been entered.
type frame struct {
	node Proc
	i    int
}

// push opens a frame for node on top of the stack.
func (pc *PC) push(node Proc) { pc.frames = append(pc.frames, frame{node: node}) }

// pop completes the top frame and advances its parent past it.
func (pc *PC) pop() {
	n := len(pc.frames) - 1
	pc.frames[n] = frame{} // drop the node: Call-generated subtrees are per-rank garbage
	pc.frames = pc.frames[:n]
	if n > 0 {
		pc.frames[n-1].i++
	}
}

// start sets the rank's continuation to the beginning of the program.
func (pc *PC) start() {
	pc.frames = make([]frame, 0, pc.job.depth)
	pc.push(pc.job.prog)
}

// exec is the interpreter: it advances the rank's frame stack until
// the rank parks at a blocking point (false) or its program completes
// (true). msg, when non-nil, is the message matching the receive the
// top frame is parked on. Send, consume and work happen at exactly the
// points (and in the order) the statements name, whichever backend
// runs the rank — the source of cross-mode VT equality.
func (pc *PC) exec(msg *comm.Message) bool {
	for n := len(pc.frames); n > 0; n = len(pc.frames) {
		f := &pc.frames[n-1]
		switch p := f.node.(type) {
		case *seqProc:
			if f.i == len(p.ps) {
				pc.pop()
				continue
			}
			pc.push(p.ps[f.i])
		case *forProc:
			if f.i == len(p.bodies) {
				pc.pop()
				continue
			}
			pc.push(p.bodies[f.i])
		case doProc:
			p.fn(pc)
			pc.pop()
		case callProc:
			f.node = p.gen(pc)
		case *recvProc:
			if msg == nil {
				if msg = pc.be.recv(pc, p.source(pc), p.tag); msg == nil {
					return false
				}
			}
			pc.consume(msg)
			if p.then != nil {
				p.then(pc, msg.Data, pc.job.senderOf(msg.From))
			}
			msg = nil
			pc.pop()
		case waitallProc:
			if f.i == 0 {
				pc.reqs, f.i = p.reqs(pc), 1
			}
			for ; f.i <= len(pc.reqs); f.i++ {
				q := pc.reqs[f.i-1]
				if q == nil || q.done || !q.isRecv {
					continue
				}
				if msg == nil {
					if msg = pc.be.recv(pc, q.src, q.tag); msg == nil {
						return false
					}
				}
				pc.consume(msg)
				q.done, q.Data, q.From = true, msg.Data, pc.job.senderOf(msg.From)
				msg = nil
			}
			pc.reqs = nil
			pc.pop()
		case collStartProc:
			pc.startColl(p.d)
			pc.pop()
		case collWaitProc:
			if !pc.waitColl(p.d, msg) {
				return false
			}
			msg = nil
			pc.pop()
		case migrateProc:
			if f.i == 0 {
				f.i = 1
				pc.job.gateSetStrategy(p.strategy)
				if !pc.be.lbpoint(pc) {
					return false
				}
			}
			pc.pop()
		default:
			panic(fmt.Sprintf("ampi: rank %d: unknown program statement %T", pc.rank, f.node))
		}
	}
	return true
}

// parkedAtRecv reports whether the rank is parked at a plain Recv —
// the only blocking point whose continuation its tree path alone
// rebuilds (cross-process migration, shard.go).
func (pc *PC) parkedAtRecv() bool {
	if len(pc.frames) == 0 {
		return false
	}
	_, ok := pc.frames[len(pc.frames)-1].node.(*recvProc)
	return ok
}

// Rank returns the rank number.
func (pc *PC) Rank() int { return pc.rank }

// Size returns the job's rank count.
func (pc *PC) Size() int { return pc.job.size }

// VT returns the rank's predicted virtual time in nanoseconds.
func (pc *PC) VT() float64 { return pc.vt }

// PE returns the simulating PE the rank currently runs on. Unlike VT
// it is placement-dependent — it changes when the rank migrates —
// and exists precisely for per-PE accounting (a zone step charging
// its busy time to the processor that executed it).
func (pc *PC) PE() int { return pc.be.pe(pc) }

// UseStack models the rank holding n bytes of live stack frames from
// here on: ULT ranks really push and dirty the frame (so every later
// migration ships it); event ranks keep nothing — a continuation has
// no stack to carry. No effect on virtual time in either mode.
func (pc *PC) UseStack(n uint64) { pc.be.usestack(pc, n) }

// Work models ns nanoseconds of local computation: it advances the
// rank's predicted time and charges the simulating PE.
func (pc *PC) Work(ns float64) {
	pc.vt += ns
	pc.be.work(pc, ns)
}

// Send sends data to rank dest with tag ≥ 0 (eager-buffered, like
// MPI_Send). Invalid destinations panic: a program is trusted code,
// not a fallible caller.
func (pc *PC) Send(dest, tag int, data []byte) {
	if tag < 0 {
		panic(fmt.Sprintf("ampi: program Send tag %d must be ≥ 0", tag))
	}
	pc.sendRaw(dest, tag, data)
}

// sendRaw is Send without the user-tag restriction (collectives use
// negative internal tags). The mode-independent half of the cost
// model lives here: send overhead advances vt, and the message
// carries vt for the receiver's arrival constraint.
func (pc *PC) sendRaw(dest, tag int, data []byte) {
	if ovh := pc.job.opts.MsgOverheadNs; ovh > 0 {
		pc.vt += ovh
	}
	pc.be.send(pc, dest, tag, data)
}

// sendEdge is sendRaw along a collective tree edge: when a topology
// is configured, the edge's torus hops are charged into vt and the
// comm hop counter before the send. Hop distance is a pure function
// of the two ranks and the job options, keeping vt mode-, placement-
// and PE-count-invariant.
func (pc *PC) sendEdge(peer, tag int, data []byte) {
	if ns := pc.job.chargeHops(pc.rank, peer); ns > 0 {
		pc.vt += ns
	}
	pc.sendRaw(peer, tag, data)
}

// consume applies the mode-independent receive cost model: the
// receiver cannot proceed before the sender's virtual time plus one
// uniform network hop, then pays the per-message software overhead.
// The latency model is applied to the *logical* message regardless of
// where the two ranks physically live, which is what makes vt
// invariant across PE counts and placements.
func (pc *PC) consume(m *comm.Message) {
	lat := pc.job.m.Network().Latency()
	if at := m.VTime + lat.Cost(len(m.Data)); at > pc.vt {
		pc.vt = at
	}
	if ovh := pc.job.opts.MsgOverheadNs; ovh > 0 {
		pc.vt += ovh
	}
}

// Req is a nonblocking-operation handle inside a program (the
// continuation analogue of Rank's Request). Completed receives expose
// Data and From.
type Req struct {
	done   bool
	isRecv bool
	src    int
	tag    int

	Data []byte
	From int
}

// Done reports whether the request has completed.
func (q *Req) Done() bool { return q.done }

// Isend sends eagerly and returns an already-completed request.
func (pc *PC) Isend(dest, tag int, data []byte) *Req {
	if tag < 0 {
		panic(fmt.Sprintf("ampi: program Isend tag %d must be ≥ 0", tag))
	}
	pc.sendRaw(dest, tag, data)
	return &Req{done: true}
}

// Irecv posts a nonblocking receive for (src, tag) — matching happens
// at Waitall, like the thread API's Irecv/Wait.
func (pc *PC) Irecv(src, tag int) *Req {
	if tag < 0 && tag != AnyTag {
		panic(fmt.Sprintf("ampi: program Irecv tag %d must be ≥ 0 or AnyTag", tag))
	}
	return &Req{isRecv: true, src: src, tag: tag}
}

// ---------------------------------------------------------------
// Primitives

type doProc struct{ fn func(*PC) }

// Do wraps non-blocking code: it runs to completion (sends, work,
// local updates) and never suspends — the program analogue of
// sdag.Atomic.
func Do(fn func(*PC)) Proc { return doProc{fn} }

type seqProc struct{ ps []Proc }

// Seq runs statements in order, each starting when its predecessor
// completes.
func Seq(ps ...Proc) Proc { return &seqProc{ps} }

type forProc struct{ bodies []Proc }

// For runs body(0) … body(n-1) in sequence — the outer iteration loop
// of a stencil program. For calls body once per iteration index, when
// the program is built, and every rank and every execution shares the
// statements it returns — so body must depend only on i.
// Rank-dependent structure belongs in Call, or in rank-relative
// statements such as RecvFrom.
func For(n int, body func(i int) Proc) Proc {
	f := &forProc{bodies: make([]Proc, max(n, 0))}
	for i := range f.bodies {
		f.bodies[i] = body(i)
	}
	return f
}

type callProc struct{ gen func(*PC) Proc }

// Call generates a statement per rank at run time — how one shared
// program expresses genuinely dynamic structure (a variable receive
// list, a root/non-root split; closures generated here carry
// per-execution state safely). Each execution calls gen again, so
// prefer static statements (RecvFrom, the collectives) on hot paths.
func Call(gen func(*PC) Proc) Proc { return callProc{gen} }

type recvProc struct {
	src   int
	srcOf func(*PC) int // rank-relative source (RecvFrom); nil = src
	tag   int
	then  func(pc *PC, data []byte, from int)
}

// source resolves the receive's source rank for pc.
func (r *recvProc) source(pc *PC) int {
	if r.srcOf != nil {
		return r.srcOf(pc)
	}
	return r.src
}

// Recv blocks until a message from src (or AnySource) with tag (or
// AnyTag) arrives, applies the receive cost model, and runs then (if
// non-nil) with the payload and sender rank.
func Recv(src, tag int, then func(pc *PC, data []byte, from int)) Proc {
	return &recvProc{src: src, tag: tag, then: then}
}

// RecvFrom is Recv with a rank-relative source: src(pc) names the
// sender (or AnySource) each time the statement runs. It lets one
// shared statement express "my left neighbour" without a per-rank
// Call.
func RecvFrom(src func(*PC) int, tag int, then func(pc *PC, data []byte, from int)) Proc {
	return &recvProc{srcOf: src, tag: tag, then: then}
}

type waitallProc struct{ reqs func(*PC) []*Req }

// Waitall completes every request returned by reqs, in order (like
// the thread API's Waitall): pending receives block and fill their
// Data/From; nil or completed entries are skipped. reqs is called once
// per execution, when the statement starts.
func Waitall(reqs func(*PC) []*Req) Proc { return waitallProc{reqs} }

type migrateProc struct{ strategy loadbalance.Strategy }

// Migrate is the program form of MPI_Migrate: a collective
// load-balancing gate. EVERY rank must reach it (a program where
// some rank exits first deadlocks, as in MPI). When the last rank
// arrives the runtime — the Run/RunParallel driver, at quiescence —
// measures per-rank loads, plans with strategy, moves ULT ranks as
// threads and event ranks as continuation records through the same
// core.Machine.MigrateMany batch, and resumes every rank on its
// assigned PE. The gate sends no messages and never advances vt, so
// predicted time stays bit-identical whether or not anything moved.
func Migrate(strategy loadbalance.Strategy) Proc {
	if strategy == nil {
		panic("ampi: Migrate: nil strategy")
	}
	return migrateProc{strategy}
}

func (doProc) isProc()        {}
func (*seqProc) isProc()      {}
func (*forProc) isProc()      {}
func (callProc) isProc()      {}
func (*recvProc) isProc()     {}
func (waitallProc) isProc()   {}
func (migrateProc) isProc()   {}
func (collStartProc) isProc() {}
func (collWaitProc) isProc()  {}

// Sendrecv is the halo-exchange primitive: an eager send followed by
// a blocking receive (deadlock-free for rings and pairs).
func Sendrecv(dest, sendTag int, data func(*PC) []byte, src, recvTag int, then func(pc *PC, data []byte, from int)) Proc {
	return Seq(
		Do(func(pc *PC) { pc.Send(dest, sendTag, data(pc)) }),
		Recv(src, recvTag, then),
	)
}

// depth returns the depth of a program's static tree, which sizes
// each rank's frame stack. Subtrees a Call generates are not visible
// here; their frames grow the stack on demand. memo holds the depth
// of Seq and For nodes already walked, so shared subtrees are walked
// once.
func depth(p Proc, memo map[Proc]int) int {
	var kids []Proc
	switch n := p.(type) {
	case *seqProc:
		kids = n.ps
	case *forProc:
		kids = n.bodies
	case callProc:
		return 2 // the generated statement plus one level below it
	default:
		return 1
	}
	if d, ok := memo[p]; ok {
		return d
	}
	d := 0
	for _, c := range kids {
		d = max(d, depth(c, memo))
	}
	memo[p] = d + 1
	return d + 1
}

// ---------------------------------------------------------------
// Collectives
//
// Every collective is compiled from the primitives above plus
// treeFamily — per-source-matched tree edges, deterministic child
// order — so a reduction combines in the same order in every mode and
// on every PE count, keeping results (and therefore vt) bit-identical.
// CollFlat selects the paper-era flat topology; the program variant
// receives from specific sources in rank order (deterministic by
// construction, unlike the thread API's AnySource flat loops).
//
// Every collective executes a collective schedule (tree.go): a fixed
// per-rank sequence of tree-edge sends and receives. The blocking
// form is literally its nonblocking start half followed immediately
// by its wait half, which is what makes blocking and nonblocking
// collectives bit-identical in virtual time and results — the
// equivalence the CI race tests pin. The nonblocking (start, wait)
// pairs let a program put Work (or halo exchange) between the two
// halves, hiding the collective's latency under compute.
//
// Like MPI, collectives must complete in program order: the wait half
// must run before the same site starts again (enforced per rank), and
// no other collective of the same kind may run between a start and
// its wait — same-kind operations share tags, so an interloper could
// consume the in-flight contributions. Different kinds interleave
// freely.

// collKind selects a collective's schedule and result delivery.
type collKind uint8

const (
	collBarrier collKind = iota
	collReduce
	collAllreduce
	collBcast
	collGather
)

// collDef is one collective site in the program tree: its kind, root,
// and the program's callbacks. One shared definition serves every rank
// and every loop iteration; a rank's in-flight state for it is a
// collRun slot.
type collDef struct {
	name    string
	kind    collKind
	root    int
	combine func(a, b float64) float64
	valF    func(*PC) float64   // Reduce/Allreduce contribution
	valB    func(*PC) []byte    // Bcast root data / Gather contribution
	thenF   func(*PC, float64)  // Reduce (root) / Allreduce result
	thenB   func(*PC, []byte)   // Bcast result
	thenG   func(*PC, [][]byte) // Gather result (root)
}

// collRun is one rank's execution of a collective site: the schedule,
// the cursor, and the accumulator. def is nil while the slot is free;
// the buffers survive for the next execution.
type collRun struct {
	def    *collDef
	acts   []collAct
	next   int
	parent int
	st     collState
}

type collStartProc struct{ d *collDef }

type collWaitProc struct{ d *collDef }

// runOf returns the rank's in-flight run of site d, or nil.
func (pc *PC) runOf(d *collDef) *collRun {
	for i := range pc.colls {
		if pc.colls[i].def == d {
			return &pc.colls[i]
		}
	}
	return nil
}

// collsInFlight reports whether any collective is between its start
// and its wait.
func (pc *PC) collsInFlight() bool {
	for i := range pc.colls {
		if pc.colls[i].def != nil {
			return true
		}
	}
	return false
}

// startColl claims a slot for site d, builds the rank's schedule into
// it, and fires the leading sends — with eager buffering the rank's
// contribution is in flight before the start statement completes.
func (pc *PC) startColl(d *collDef) {
	if pc.runOf(d) != nil {
		panic(fmt.Sprintf("ampi: rank %d: %s started again before its wait completed", pc.rank, d.name))
	}
	run := pc.runOf(nil)
	if run == nil {
		pc.colls = append(pc.colls, collRun{})
		run = &pc.colls[len(pc.colls)-1]
	}
	var kids [8]int
	parent, children := collFamily(pc.rank, pc.Size(), &pc.job.opts, d.root, kids[:0])
	run.def, run.next, run.parent = d, 0, parent
	run.st = collState{entries: run.st.entries[:0]}
	acts := run.acts[:0]
	if need := 2*len(children) + 2; cap(acts) < need {
		acts = make([]collAct, 0, need) // every schedule fits; reused from here on
	}
	switch d.kind {
	case collBarrier:
		acts = barrierActs(acts, parent, children)
	case collReduce:
		run.st.acc = d.valF(pc)
		acts = reduceActs(acts, parent, children)
	case collAllreduce:
		run.st.acc = d.valF(pc)
		acts = allreduceActs(acts, parent, children)
	case collBcast:
		if parent < 0 {
			run.st.data = d.valB(pc)
		}
		acts = bcastActs(acts, parent, children)
	case collGather:
		run.st.entries = append(run.st.entries, gatherEntry{rank: pc.rank, data: d.valB(pc)})
		acts = gatherActs(acts, parent, children)
	}
	run.acts = acts
	pc.sendPrefix(run)
}

// sendPrefix executes the schedule's pending leading sends.
func (pc *PC) sendPrefix(run *collRun) {
	for run.next < len(run.acts) && run.acts[run.next].send {
		a := run.acts[run.next]
		pc.sendEdge(int(a.peer), int(a.tag), run.st.payload(a))
		run.next++
	}
}

// waitColl advances the started collective at site d: remaining
// receives park the rank (one at a time), dependent sends go out, and
// on completion the slot is freed and the result delivered. msg, when
// non-nil, matches the receive the rank parked on. Returns false while
// parked.
func (pc *PC) waitColl(d *collDef, msg *comm.Message) bool {
	run := pc.runOf(d)
	if run == nil {
		panic(fmt.Sprintf("ampi: rank %d: wait for %s with no matching start", pc.rank, d.name))
	}
	for {
		if msg == nil {
			pc.sendPrefix(run)
			if run.next == len(run.acts) {
				pc.finishColl(run)
				return true
			}
			a := run.acts[run.next]
			if msg = pc.be.recv(pc, int(a.peer), int(a.tag)); msg == nil {
				return false
			}
		}
		pc.consume(msg)
		if err := run.st.absorb(run.acts[run.next], msg.Data, d.combine, pc.Size()); err != nil {
			panic(err)
		}
		run.next++
		msg = nil
	}
}

// finishColl delivers a completed run's result and frees its slot.
func (pc *PC) finishColl(run *collRun) {
	d, root := run.def, run.parent < 0
	switch d.kind {
	case collReduce:
		if d.thenF != nil && root {
			d.thenF(pc, run.st.acc)
		}
	case collAllreduce:
		if d.thenF != nil {
			d.thenF(pc, run.st.acc)
		}
	case collBcast:
		if d.thenB != nil {
			d.thenB(pc, run.st.data)
		}
	case collGather:
		if d.thenG != nil && root {
			d.thenG(pc, gatherParts(run.st.entries, pc.Size()))
		}
	}
	run.def = nil
	run.st.data = nil
	clear(run.st.entries) // drop payload references; the buffer stays
}

// icoll returns the (start, wait) statement pair of a new site.
func icoll(d *collDef) (start, wait Proc) {
	return collStartProc{d}, collWaitProc{d}
}

// blocking is the blocking form of a site: start, then wait.
func blocking(d *collDef) Proc {
	start, wait := icoll(d)
	return Seq(start, wait)
}

// Barrier blocks until every rank has entered it: arrivals combine up
// the topology, the release broadcasts down.
func Barrier() Proc {
	return blocking(&collDef{name: "Barrier", kind: collBarrier})
}

// Ibarrier is the nonblocking Barrier: start fires the rank's arrival
// up the tree, wait blocks until the release comes down. Statements
// between the two run while other ranks are still arriving.
func Ibarrier() (start, wait Proc) {
	return icoll(&collDef{name: "Ibarrier", kind: collBarrier})
}

// Reduce combines every rank's value (from val) at root with op
// ("sum", "max", "min"); then runs on root only.
func Reduce(root int, op string, val func(*PC) float64, then func(*PC, float64)) Proc {
	return blocking(&collDef{name: "Reduce", kind: collReduce, root: root, combine: mustCombiner(op), valF: val, thenF: then})
}

// Ireduce is the nonblocking Reduce: val is read at start, then runs
// (on root) at wait.
func Ireduce(root int, op string, val func(*PC) float64, then func(*PC, float64)) (start, wait Proc) {
	return icoll(&collDef{name: "Ireduce", kind: collReduce, root: root, combine: mustCombiner(op), valF: val, thenF: then})
}

// Allreduce combines every rank's value with op and delivers the
// result to then on every rank.
func Allreduce(op string, val func(*PC) float64, then func(*PC, float64)) Proc {
	return blocking(&collDef{name: "Allreduce", kind: collAllreduce, combine: mustCombiner(op), valF: val, thenF: then})
}

// Iallreduce is the nonblocking Allreduce: val is read at start (a
// leaf's contribution is on the wire before start completes), then
// runs with the combined result at wait — so Work placed between the
// two halves overlaps the reduction's tree latency.
func Iallreduce(op string, val func(*PC) float64, then func(*PC, float64)) (start, wait Proc) {
	return icoll(&collDef{name: "Iallreduce", kind: collAllreduce, combine: mustCombiner(op), valF: val, thenF: then})
}

// Bcast broadcasts root's data (from val, called on root only) down
// the topology; then runs on every rank with the received copy.
func Bcast(root int, val func(*PC) []byte, then func(*PC, []byte)) Proc {
	return blocking(&collDef{name: "Bcast", kind: collBcast, root: root, valB: val, thenB: then})
}

// Ibcast is the nonblocking Bcast: root's sends fire at start, every
// rank's then runs at wait.
func Ibcast(root int, val func(*PC) []byte, then func(*PC, []byte)) (start, wait Proc) {
	return icoll(&collDef{name: "Ibcast", kind: collBcast, root: root, valB: val, thenB: then})
}

// Gather collects every rank's data (from val) at root, indexed by
// rank; then runs on root only. Subtrees pack their entries into one
// message per edge, like the thread API's gatherTree.
func Gather(root int, val func(*PC) []byte, then func(*PC, [][]byte)) Proc {
	return blocking(&collDef{name: "Gather", kind: collGather, root: root, valB: val, thenG: then})
}

// Igather is the nonblocking Gather: leaf contributions fire at
// start, the root's then runs at wait.
func Igather(root int, val func(*PC) []byte, then func(*PC, [][]byte)) (start, wait Proc) {
	return icoll(&collDef{name: "Igather", kind: collGather, root: root, valB: val, thenG: then})
}

// Scatter distributes chunks (from val, called on root only; one
// chunk per rank) from root; then runs on every rank with its chunk.
func Scatter(root int, val func(*PC) [][]byte, then func(*PC, []byte)) Proc {
	return Call(func(pc *PC) Proc {
		if pc.rank == root {
			return Do(func(pc *PC) {
				chunks := val(pc)
				if len(chunks) != pc.Size() {
					panic(fmt.Sprintf("ampi: Scatter: %d chunks for %d ranks", len(chunks), pc.Size()))
				}
				for i, c := range chunks {
					if i != root {
						pc.sendRaw(i, tagScatter, c)
					}
				}
				if then != nil {
					then(pc, chunks[root])
				}
			})
		}
		return Recv(root, tagScatter, func(pc *PC, data []byte, _ int) {
			if then != nil {
				then(pc, data)
			}
		})
	})
}

// Alltoall exchanges chunks[i] (from val; one per rank) with every
// rank i; then runs with the received chunks indexed by sender.
// Receives match each peer specifically, in rank order, so no payload
// prefix is needed and the exchange is deterministic.
func Alltoall(val func(*PC) [][]byte, then func(*PC, [][]byte)) Proc {
	return Call(func(pc *PC) Proc {
		out := new([][]byte)
		var ps []Proc
		ps = append(ps, Do(func(pc *PC) {
			chunks := val(pc)
			if len(chunks) != pc.Size() {
				panic(fmt.Sprintf("ampi: Alltoall: %d chunks for %d ranks", len(chunks), pc.Size()))
			}
			*out = make([][]byte, pc.Size())
			(*out)[pc.rank] = chunks[pc.rank]
			for i, c := range chunks {
				if i != pc.rank {
					pc.sendRaw(i, tagAlltoall, c)
				}
			}
		}))
		for i := 0; i < pc.Size(); i++ {
			if i == pc.rank {
				continue
			}
			i := i
			ps = append(ps, Recv(i, tagAlltoall, func(pc *PC, data []byte, _ int) {
				(*out)[i] = data
			}))
		}
		if then != nil {
			ps = append(ps, Do(func(pc *PC) { then(pc, *out) }))
		}
		return Seq(ps...)
	})
}

func mustCombiner(op string) func(a, b float64) float64 {
	combine, err := combiner(op)
	if err != nil {
		panic(err)
	}
	return combine
}

// ---------------------------------------------------------------
// Job plumbing

// NewProgram creates size ranks on machine m, each running the shared
// continuation program prog under the mode selected by opts.Mode. In
// ULT mode every rank is a migratable thread interpreting prog; in
// event mode ranks are contiguous state structs dispatched by their
// PEs' loops (event.go).
func NewProgram(m *core.Machine, size int, opts Options, prog Proc) (*Job, error) {
	if prog == nil {
		return nil, fmt.Errorf("ampi: NewProgram: nil program")
	}
	j, err := newJobCommon(m, size, &opts)
	if err != nil {
		return nil, err
	}
	j.prog = prog
	j.depth = depth(prog, make(map[Proc]int))
	if j.opts.Mode == ModeEvent {
		if j.ev, err = newEventEngine(j); err != nil {
			return nil, err
		}
		return j, nil
	}
	j.rankOf = make(map[comm.EntityID]int, size)
	j.pcs = make([]*PC, size)
	for r := 0; r < size; r++ {
		rank := &Rank{job: j, rank: r}
		pc := &PC{job: j, rank: r}
		pc.be = ultBE{rank}
		j.pcs[r] = pc
		pe := m.PE(placePE(r, size, m.NumPEs(), j.opts.BlockPlacement))
		th, err := pe.Sched.CthCreate(converse.ThreadOptions{
			Strategy:  j.opts.Strategy,
			StackSize: j.opts.StackSize,
			Globals:   j.opts.Globals,
		}, func(c *converse.Ctx) {
			rank.ctx = c
			runProgram(pc)
			if j.opts.Aggregate {
				rank.flushStream()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("ampi: creating rank %d: %w", r, err)
		}
		rank.th = th
		j.ranks = append(j.ranks, rank)
		j.rankOf[comm.EntityID(th.ID())] = r
		if err := m.RegisterEntity(comm.EntityID(th.ID()), pe.Index, rank.deliver); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// runProgram interprets the job's program to completion on the
// calling thread (the ULT backend): blocking points suspend the
// thread inside exec, so it only returns at the end.
func runProgram(pc *PC) {
	pc.start()
	if !pc.exec(nil) {
		panic(fmt.Sprintf("ampi: rank %d program parked on a thread backend", pc.rank))
	}
	pc.frames = nil
}

// ultBE interprets program blocking points against the rank's thread:
// recv parks the thread via the classic mailbox path, so the
// scheduler charges the usual thread-switch curve per activation.
type ultBE struct{ r *Rank }

func (b ultBE) send(pc *PC, dest, tag int, data []byte) {
	if err := b.r.sendv(dest, tag, data, pc.vt); err != nil {
		panic(err)
	}
}

func (b ultBE) recv(pc *PC, src, tag int) *comm.Message { return b.r.recv(src, tag) }

func (b ultBE) work(pc *PC, ns float64) { b.r.ctx.Work(ns) }

func (b ultBE) pe(pc *PC) int { return b.r.ctx.PE().Index }

// lbpoint suspends the rank's thread at the gate; the driver's
// serviceGate migrates it (as a suspended thread, via the ordinary
// bulk path) and Awakens it on the destination.
func (b ultBE) lbpoint(pc *PC) bool {
	pc.job.gateArrive()
	b.r.ctx.Suspend()
	return true
}

func (b ultBE) usestack(pc *PC, n uint64) {
	if n == 0 {
		return
	}
	frame, err := b.r.ctx.PushFrame(n)
	if err != nil {
		panic(fmt.Sprintf("ampi: rank %d UseStack(%d): %v", pc.rank, n, err))
	}
	// Dirty one word per page so the frame is live data the stack
	// strategy must actually move, not just reserved address space.
	space := b.r.ctx.Space()
	for off := uint64(0); off+8 <= n; off += vmem.PageSize {
		if err := space.WriteUint64(frame.Add(off), off); err != nil {
			panic(fmt.Sprintf("ampi: rank %d UseStack dirty: %v", pc.rank, err))
		}
	}
}

// senderOf maps a message's From identity back to its rank.
func (j *Job) senderOf(from comm.EntityID) int {
	if j.ev != nil {
		return j.ev.rankIdx(from)
	}
	if i, ok := j.rankOf[from]; ok {
		return i
	}
	return -1
}

// VT returns rank r's predicted virtual time in nanoseconds (program
// jobs only). It is bit-identical across modes and PE counts for the
// same program and job options.
func (j *Job) VT(r int) float64 {
	if j.ev != nil {
		return j.ev.vtOf(r)
	}
	if j.pcs != nil {
		return j.pcs[r].vt
	}
	return 0
}

// PredictedNs returns the program's predicted parallel completion
// time: the maximum rank VT.
func (j *Job) PredictedNs() float64 {
	var max float64
	for r := 0; r < j.size; r++ {
		if vt := j.VT(r); vt > max {
			max = vt
		}
	}
	return max
}
