package ampi

import "fmt"

// Request is a nonblocking-operation handle (MPI_Request). Sends
// complete immediately (eager buffering, like small-message MPI);
// receives complete at Wait.
type Request struct {
	rank *Rank
	recv *matchSpec // nil for sends
	done bool
	data []byte
	from int
}

// Isend starts a nonblocking send. With eager buffering the data is
// already on the wire when Isend returns, so the request is complete;
// the handle exists for MPI-shaped code.
func (r *Rank) Isend(dest, tag int, data []byte) (*Request, error) {
	if tag < 0 {
		return nil, fmt.Errorf("ampi: Isend tag %d must be ≥ 0", tag)
	}
	if err := r.send(dest, tag, data); err != nil {
		return nil, err
	}
	return &Request{rank: r, done: true}, nil
}

// Irecv posts a nonblocking receive; matching happens at Wait. (Real
// MPI matches at arrival; for the post-compute-wait pattern the
// semantics coincide. Overlapping wildcard Irecvs should Wait in
// post order.)
func (r *Rank) Irecv(src, tag int) (*Request, error) {
	if tag < 0 && tag != AnyTag {
		return nil, fmt.Errorf("ampi: Irecv tag %d must be ≥ 0 or AnyTag", tag)
	}
	return &Request{rank: r, recv: &matchSpec{src: src, tag: tag}}, nil
}

// Test reports whether the request has completed, without blocking.
func (q *Request) Test() bool {
	if q.done {
		return true
	}
	q.rank.mu.Lock()
	defer q.rank.mu.Unlock()
	for _, m := range q.rank.mbox {
		if q.rank.matchesLocked(q.recv, m) {
			return true
		}
	}
	return false
}

// Wait blocks until the request completes and, for receives, returns
// the payload and sender rank.
func (r *Rank) Wait(q *Request) ([]byte, int, error) {
	if q.rank != r {
		return nil, 0, fmt.Errorf("ampi: Wait on another rank's request")
	}
	if q.done {
		return q.data, q.from, nil
	}
	m := r.recv(q.recv.src, q.recv.tag)
	q.done = true
	q.data = m.Data
	q.from = r.senderRank(m)
	return q.data, q.from, nil
}

// Waitall completes every request in order.
func (r *Rank) Waitall(qs []*Request) error {
	for _, q := range qs {
		if _, _, err := r.Wait(q); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------
// Nonblocking collectives (MPI-3 I-collectives).
//
// A CollRequest is an in-progress collective schedule (tree.go): the
// Ixxx call runs the schedule's leading sends — with eager buffering
// a leaf's contribution is on the wire before the call returns — and
// Wait executes the rest (receives and the sends that depend on
// them). Because the blocking collectives execute the *same* schedule
// front to back, a blocking call is exactly Ixxx + Wait: results and
// virtual-time charges are bit-identical by construction, and the gap
// between start and wait is where compute overlaps communication.
//
// Like MPI, collectives of the same kind must complete in program
// order: do not start another collective that shares this one's tags
// (the same Ixxx kind, or its blocking form) before Wait returns.

// CollRequest is a nonblocking-collective handle. After Wait, the
// operation's result is in Value (reductions), Data (Bcast), or
// Parts (Gather, root only).
type CollRequest struct {
	r       *Rank
	acts    []collAct
	next    int
	st      collState
	combine func(a, b float64) float64
	finish  func()
	done    bool

	Value float64  // Iallreduce / Ireduce (root) result
	Data  []byte   // Ibcast result
	Parts [][]byte // Igather result (root only)
}

// startColl builds the request and runs the schedule's leading sends.
func (r *Rank) startColl(q *CollRequest) (*CollRequest, error) {
	q.r = r
	for q.next < len(q.acts) && q.acts[q.next].send {
		if err := r.doAct(q.acts[q.next], &q.st, q.combine); err != nil {
			return nil, err
		}
		q.next++
	}
	return q, nil
}

// Wait completes the collective: remaining receives block (in
// schedule order), dependent sends go out, and the result fields are
// filled. Waiting twice is a no-op.
func (q *CollRequest) Wait() error {
	if q.done {
		return nil
	}
	for q.next < len(q.acts) {
		if err := q.r.doAct(q.acts[q.next], &q.st, q.combine); err != nil {
			return err
		}
		q.next++
	}
	q.done = true
	if q.finish != nil {
		q.finish()
	}
	return nil
}

// Done reports whether the collective has completed (Wait returned).
func (q *CollRequest) Done() bool { return q.done }

// Ibarrier starts a nonblocking barrier; Wait returns once every rank
// has entered it.
func (r *Rank) Ibarrier() (*CollRequest, error) {
	parent, children := r.family(0)
	return r.startColl(&CollRequest{acts: barrierActs(nil, parent, children)})
}

// Iallreduce starts a nonblocking Allreduce of v under op ("sum",
// "max", "min"); Wait fills Value on every rank.
func (r *Rank) Iallreduce(op string, v float64) (*CollRequest, error) {
	combine, err := combiner(op)
	if err != nil {
		return nil, err
	}
	parent, children := r.family(0)
	q := &CollRequest{acts: allreduceActs(nil, parent, children), st: collState{acc: v}, combine: combine}
	q.finish = func() { q.Value = q.st.acc }
	return r.startColl(q)
}

// Ireduce starts a nonblocking Reduce at root; Wait fills Value on
// the root (0 elsewhere, like the blocking Reduce).
func (r *Rank) Ireduce(root int, op string, v float64) (*CollRequest, error) {
	combine, err := combiner(op)
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= len(r.job.ranks) {
		return nil, fmt.Errorf("ampi: Ireduce root %d of %d", root, len(r.job.ranks))
	}
	parent, children := r.family(root)
	q := &CollRequest{acts: reduceActs(nil, parent, children), st: collState{acc: v}, combine: combine}
	if parent < 0 {
		q.finish = func() { q.Value = q.st.acc }
	}
	return r.startColl(q)
}

// Ibcast starts a nonblocking broadcast of root's data; Wait fills
// Data on every rank (root keeps its own copy).
func (r *Rank) Ibcast(root int, data []byte) (*CollRequest, error) {
	if root < 0 || root >= len(r.job.ranks) {
		return nil, fmt.Errorf("ampi: Ibcast root %d of %d", root, len(r.job.ranks))
	}
	parent, children := r.family(root)
	q := &CollRequest{acts: bcastActs(nil, parent, children), st: collState{data: data}}
	q.finish = func() { q.Data = q.st.data }
	return r.startColl(q)
}

// Igather starts a nonblocking Gather at root; Wait fills Parts
// (indexed by rank) on the root only.
func (r *Rank) Igather(root int, data []byte) (*CollRequest, error) {
	if root < 0 || root >= len(r.job.ranks) {
		return nil, fmt.Errorf("ampi: Igather root %d of %d", root, len(r.job.ranks))
	}
	parent, children := r.family(root)
	q := &CollRequest{acts: gatherActs(nil, parent, children), st: collState{entries: []gatherEntry{{rank: r.rank, data: data}}}}
	if parent < 0 {
		q.finish = func() { q.Parts = gatherParts(q.st.entries, len(r.job.ranks)) }
	}
	return r.startColl(q)
}
