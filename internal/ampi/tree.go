package ampi

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Spanning-tree collectives (CollTree, the default). Every collective
// runs over a k-ary tree of ranks rooted at the operation's root:
// partial values combine up the tree and results broadcast down, so
// no rank ever serializes more than k messages per phase — the
// production Charm++/AMPI shape, versus the paper-era flat algorithms
// (CollFlat) that funnel O(P) messages through one inbox.
//
// Beyond latency, the tree algorithms are *stronger* than the flat
// ones: every tree edge is a specific (parent, child) pair matched by
// source rank, and in-order delivery per (sender, destination) pair
// means back-to-back collectives of the same kind cannot steal each
// other's contributions. The flat Reduce/Gather match AnySource, so a
// fast rank's epoch-N+1 message can be consumed into the root's
// epoch-N combine; they are kept, unchanged, for A/B comparison.
//
// CollTopoTree replaces the rank-order shape with a topology-aware
// one (topoFamily): tree edges follow the torus/PE-group hierarchy,
// so when Options.Topo charges per-hop costs, the same reduction
// crosses fewer hops at identical combine order per node.

// treeFamily returns rank's parent (-1 for the root) and children in
// the k-ary collective tree of n ranks rooted at root. Ranks are
// renumbered relative to root, so any root yields the same shape. It
// is placement- and mode-independent — both the thread collectives
// below and the continuation-program collectives (program.go) build
// their trees here. Children are appended to buf (nil, or a reused
// buffer), as in every family function below.
func treeFamily(rank, n, k, root int, buf []int) (parent int, children []int) {
	children = buf
	rel := (rank - root + n) % n
	parent = -1
	if rel != 0 {
		parent = ((rel-1)/k + root) % n
	}
	for i := 1; i <= k; i++ {
		c := k*rel + i
		if c >= n {
			break
		}
		children = append(children, (c+root)%n)
	}
	return parent, children
}

// topoMap is the rank↔(node, index) arithmetic topoFamily runs on:
// ranks in [0, n) map onto eff logical nodes with the same placement
// function the job uses for PEs (contiguous blocks or round-robin),
// so co-resident ranks share a node.
type topoMap struct {
	n, eff, k int
	block     bool
}

// node returns the logical node holding rank x.
func (tm topoMap) node(x int) int { return placePE(x, tm.n, tm.eff, tm.block) }

// rankAt returns node m's i-th resident rank (i < count(m)).
func (tm topoMap) rankAt(m, i int) int {
	if tm.block {
		return (m*tm.n+tm.eff-1)/tm.eff + i
	}
	return m + i*tm.eff
}

// idx returns rank x's index within its node.
func (tm topoMap) idx(x int) int {
	if tm.block {
		return x - tm.rankAt(tm.node(x), 0)
	}
	return x / tm.eff
}

// count returns how many ranks live on node m (≥ 1 for eff ≤ n).
func (tm topoMap) count(m int) int {
	if tm.block {
		lo := (m*tm.n + tm.eff - 1) / tm.eff
		hi := ((m+1)*tm.n + tm.eff - 1) / tm.eff
		if hi > tm.n {
			hi = tm.n
		}
		return hi - lo
	}
	return 1 + (tm.n-1-m)/tm.eff
}

// topoFamily returns rank's parent and children in the topology-aware
// spanning tree of n ranks rooted at root (CollTopoTree). The tree
// follows the torus/PE-group hierarchy of t instead of rank order:
//
//   - ranks on one logical node form a k-ary subtree under the node's
//     first resident (its leader), so those edges cross zero hops;
//   - node leaders within one GroupSize-node group form a k-ary
//     subtree under the group's lead node, so those edges stay short;
//   - group lead nodes form a k-ary tree across groups — only these
//     few edges cross long torus distances.
//
// Like treeFamily, ranks are renumbered relative to root and the
// result depends only on (rank, n, k, root, t, block) — never on
// current placement — so collectives built on it stay deterministic
// and migration-invariant.
func topoFamily(rank, n, k, root int, t Topology, block bool, buf []int) (parent int, children []int) {
	eff, gsize := t.Nodes, t.GroupSize
	if eff > n {
		eff = n
	}
	if eff <= 0 || gsize <= 0 {
		return treeFamily(rank, n, k, root, buf)
	}
	children = buf
	tm := topoMap{n: n, eff: eff, k: k, block: block}
	abs := func(x int) int { return (x + root) % n }
	rel := (rank - root + n) % n

	m := tm.node(rel)
	i := tm.idx(rel)
	g := m / gsize
	lead := g * gsize // the group's lead node

	parent = -1
	switch {
	case i != 0: // within-node subtree
		parent = abs(tm.rankAt(m, (i-1)/k))
	case m != lead: // node leader under the group's lead node
		parent = abs(tm.rankAt(lead+(m-lead-1)/k, 0))
	case g != 0: // group leader under its parent group's lead node
		parent = abs(tm.rankAt(((g-1)/k)*gsize, 0))
	}

	for c := k*i + 1; c <= k*i+k; c++ {
		if c >= tm.count(m) {
			break
		}
		children = append(children, abs(tm.rankAt(m, c)))
	}
	if i == 0 {
		groupNodes := gsize
		if lead+groupNodes > eff {
			groupNodes = eff - lead
		}
		j := m - lead
		for c := k*j + 1; c <= k*j+k; c++ {
			if c >= groupNodes {
				break
			}
			children = append(children, abs(tm.rankAt(lead+c, 0)))
		}
		if m == lead {
			ngroups := (eff + gsize - 1) / gsize
			for c := k*g + 1; c <= k*g+k; c++ {
				if c >= ngroups {
					break
				}
				children = append(children, abs(tm.rankAt(c*gsize, 0)))
			}
		}
	}
	return parent, children
}

// collFamily returns rank's parent and children in the job's
// collective topology rooted at root: the rank-order k-ary tree
// (CollTree), the topology-aware tree (CollTopoTree), or the
// one-level star (CollFlat; children in rank order, so star
// collectives built on it are deterministic, unlike the blocking flat
// loops' AnySource matching).
func collFamily(rank, n int, opts *Options, root int, buf []int) (parent int, children []int) {
	switch opts.Collectives {
	case CollFlat:
		if rank == root {
			children = slices.Grow(buf, n-1)
			for i := 0; i < n; i++ {
				if i != root {
					children = append(children, i)
				}
			}
			return -1, children
		}
		return root, nil
	case CollTopoTree:
		return topoFamily(rank, n, opts.TreeArity, root, opts.Topo, opts.BlockPlacement, buf)
	default:
		return treeFamily(rank, n, opts.TreeArity, root, buf)
	}
}

func (r *Rank) family(root int) (parent int, children []int) {
	return collFamily(r.rank, len(r.job.ranks), &r.job.opts, root, nil)
}

// ---------------------------------------------------------------
// Collective schedules
//
// A collective, for one rank, is a fixed sequence of edge actions:
// sends to and receives from its family, in an order that encodes the
// up-combine/down-broadcast dance. The builders below emit that
// sequence once; the blocking thread collectives (runActs), the
// nonblocking thread requests (CollRequest, nonblocking.go), and both
// program backends (PC.waitColl, program.go) all execute the same
// schedule — which is what makes blocking and nonblocking collectives
// bit-identical by construction: a blocking collective IS its
// nonblocking start followed immediately by its wait.
//
// Actions are plain data: what a send carries and what a receive does
// with its payload is named by the action's op and applied to the
// execution's collState, so a schedule is built into a reusable buffer
// and allocates no closures.

// actOp names what an action moves between the wire and the collState.
type actOp uint8

const (
	actNone    actOp = iota // send an empty message / discard the payload
	actCombine              // receive: acc = combine(acc, payload)
	actAcc                  // send: acc; receive: acc = payload
	actData                 // send: data; receive: data = payload
	actGather               // send: the packed entries; receive: append the subtree
)

// collAct is one edge action of a collective schedule. Send payloads
// are computed at execution time (an up-phase send depends on data
// combined from earlier receives).
type collAct struct {
	send bool
	op   actOp
	peer int32
	tag  int32
}

// collState is one rank's data for one collective execution: the
// accumulator receive actions fold into and send actions read from.
type collState struct {
	acc     float64
	data    []byte
	entries []gatherEntry
}

// payload returns the bytes send action a carries.
func (s *collState) payload(a collAct) []byte {
	switch a.op {
	case actAcc:
		return f64bytes(s.acc)
	case actData:
		return s.data
	case actGather:
		return packGather(s.entries)
	}
	return nil
}

// absorb applies receive action a to payload d. combine serves
// actCombine; nranks bounds the ranks a gathered subtree may name.
func (s *collState) absorb(a collAct, d []byte, combine func(a, b float64) float64, nranks int) error {
	switch a.op {
	case actCombine:
		s.acc = combine(s.acc, f64(d))
	case actAcc:
		s.acc = f64(d)
	case actData:
		s.data = d
	case actGather:
		entries, err := appendGather(s.entries, d, nranks)
		if err != nil {
			return err
		}
		s.entries = entries
	}
	return nil
}

func sendAct(op actOp, peer, tag int) collAct {
	return collAct{send: true, op: op, peer: int32(peer), tag: int32(tag)}
}

func recvAct(op actOp, peer, tag int) collAct {
	return collAct{op: op, peer: int32(peer), tag: int32(tag)}
}

// barrierActs: arrivals combine up the tree, the release broadcasts
// down. Depth is ceil(log_k P), and every rank handles at most k+1
// messages. Every builder appends to acts (pass a reused buffer).
func barrierActs(acts []collAct, parent int, children []int) []collAct {
	for _, c := range children {
		acts = append(acts, recvAct(actNone, c, tagBarrier))
	}
	if parent >= 0 {
		acts = append(acts, sendAct(actNone, parent, tagBarrier), recvAct(actNone, parent, tagBarrierRelease))
	}
	for _, c := range children {
		acts = append(acts, sendAct(actNone, c, tagBarrierRelease))
	}
	return acts
}

// allreduceActs combines partial values up the tree into acc and
// broadcasts the result down the same edges.
func allreduceActs(acts []collAct, parent int, children []int) []collAct {
	for _, c := range children {
		acts = append(acts, recvAct(actCombine, c, tagReduce))
	}
	if parent >= 0 {
		acts = append(acts, sendAct(actAcc, parent, tagReduce), recvAct(actAcc, parent, tagReduceResult))
	}
	for _, c := range children {
		acts = append(acts, sendAct(actAcc, c, tagReduceResult))
	}
	return acts
}

// reduceActs combines partial values up the tree into acc; only the
// root's acc ends up meaningful.
func reduceActs(acts []collAct, parent int, children []int) []collAct {
	for _, c := range children {
		acts = append(acts, recvAct(actCombine, c, tagReduceRoot))
	}
	if parent >= 0 {
		acts = append(acts, sendAct(actAcc, parent, tagReduceRoot))
	}
	return acts
}

// bcastActs forwards data (pre-set on the root) down the tree.
func bcastActs(acts []collAct, parent int, children []int) []collAct {
	if parent >= 0 {
		acts = append(acts, recvAct(actData, parent, tagBcast))
	}
	for _, c := range children {
		acts = append(acts, sendAct(actData, c, tagBcast))
	}
	return acts
}

// gatherActs merges (rank, data) entries up the tree: entries starts
// with the rank's own contribution, children's packed subtrees append
// to it, and one packed message goes to the parent — so the root
// receives exactly its children's subtrees instead of P-1 messages.
func gatherActs(acts []collAct, parent int, children []int) []collAct {
	for _, c := range children {
		acts = append(acts, recvAct(actGather, c, tagGather))
	}
	if parent >= 0 {
		acts = append(acts, sendAct(actGather, parent, tagGather))
	}
	return acts
}

// doAct executes one action synchronously on the rank's thread.
func (r *Rank) doAct(a collAct, st *collState, combine func(a, b float64) float64) error {
	if a.send {
		return r.sendEdge(int(a.peer), int(a.tag), st.payload(a))
	}
	m := r.recv(int(a.peer), int(a.tag))
	return st.absorb(a, m.Data, combine, len(r.job.ranks))
}

// runActs executes a collective schedule synchronously — the blocking
// thread collectives.
func (r *Rank) runActs(acts []collAct, st *collState, combine func(a, b float64) float64) error {
	for _, a := range acts {
		if err := r.doAct(a, st, combine); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------
// Blocking tree collectives: schedule + immediate execution.

func (r *Rank) barrierTree() error {
	parent, children := r.family(0)
	return r.runActs(barrierActs(nil, parent, children), &collState{}, nil)
}

// allreduceTree combines partial values up the tree rooted at rank 0
// and broadcasts the result down the same edges.
func (r *Rank) allreduceTree(combine func(a, b float64) float64, v float64) (float64, error) {
	parent, children := r.family(0)
	st := collState{acc: v}
	if err := r.runActs(allreduceActs(nil, parent, children), &st, combine); err != nil {
		return 0, err
	}
	return st.acc, nil
}

// reduceTree combines partial values up the tree; only root gets the
// result (others return 0, like the flat Reduce).
func (r *Rank) reduceTree(root int, combine func(a, b float64) float64, v float64) (float64, error) {
	parent, children := r.family(root)
	st := collState{acc: v}
	if err := r.runActs(reduceActs(nil, parent, children), &st, combine); err != nil {
		return 0, err
	}
	if parent >= 0 {
		return 0, nil
	}
	return st.acc, nil
}

// bcastTree forwards root's data down the tree.
func (r *Rank) bcastTree(root int, data []byte) ([]byte, error) {
	parent, children := r.family(root)
	st := collState{data: data}
	if err := r.runActs(bcastActs(nil, parent, children), &st, nil); err != nil {
		return nil, err
	}
	return st.data, nil
}

// gatherTree merges (rank, data) entries up the tree: each node packs
// its own entry with its children's subtrees and sends one message to
// its parent, so the root receives exactly its k children's packed
// subtrees instead of P-1 individual messages.
func (r *Rank) gatherTree(root int, data []byte) ([][]byte, error) {
	parent, children := r.family(root)
	st := collState{entries: []gatherEntry{{rank: r.rank, data: data}}}
	if err := r.runActs(gatherActs(nil, parent, children), &st, nil); err != nil {
		return nil, err
	}
	if parent >= 0 {
		return nil, nil
	}
	return gatherParts(st.entries, len(r.job.ranks)), nil
}

// gatherParts indexes gathered entries by rank.
func gatherParts(entries []gatherEntry, nranks int) [][]byte {
	out := make([][]byte, nranks)
	for _, e := range entries {
		out[e.rank] = e.data
	}
	return out
}

// gatherEntry is one rank's contribution riding a packed subtree
// message.
type gatherEntry struct {
	rank int
	data []byte
}

// packGather serializes entries as repeated (rank u32, len u32,
// bytes) records.
func packGather(entries []gatherEntry) []byte {
	size := 0
	for _, e := range entries {
		size += 8 + len(e.data)
	}
	buf := make([]byte, 0, size)
	var hdr [8]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint32(hdr[0:], uint32(e.rank))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(e.data)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, e.data...)
	}
	return buf
}

// unpackGather parses a packed subtree, validating every rank and
// length against the message bounds.
func unpackGather(buf []byte, nranks int) ([]gatherEntry, error) {
	return appendGather(nil, buf, nranks)
}

// appendGather is unpackGather appending to out, so a collective's
// reused entry buffer absorbs subtrees without a slice per message.
func appendGather(out []gatherEntry, buf []byte, nranks int) ([]gatherEntry, error) {
	for len(buf) > 0 {
		if len(buf) < 8 {
			return nil, fmt.Errorf("ampi: Gather: truncated subtree header")
		}
		rank := int(binary.LittleEndian.Uint32(buf[0:]))
		n := int(binary.LittleEndian.Uint32(buf[4:]))
		buf = buf[8:]
		if rank < 0 || rank >= nranks {
			return nil, fmt.Errorf("ampi: Gather: bad rank %d in subtree", rank)
		}
		if n < 0 || n > len(buf) {
			return nil, fmt.Errorf("ampi: Gather: entry length %d exceeds message", n)
		}
		var data []byte
		if n > 0 {
			data = buf[:n]
		}
		out = append(out, gatherEntry{rank: rank, data: data})
		buf = buf[n:]
	}
	return out, nil
}
