package ampi

import (
	"testing"

	"migflow/internal/core"
	"migflow/internal/pup"
)

// wireRecord packs a cross-process record for rank (parked on
// Recv(src, tag)) with the given tree path, landing on toPE, with no
// program state, buffered messages or stream state.
func wireRecord(t *testing.T, rank, toPE, src, tag int, path []int) []byte {
	t.Helper()
	p := pup.NewGrowPacker()
	r, to := uint64(rank), uint64(toPE)
	var depart, vt, busy float64
	plen, hasLocal, zero := len(path), false, 0
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(p.Uint64(&r))
	check(p.Uint64(&to))
	check(p.Float64(&depart))
	check(p.Float64(&vt))
	check(p.Float64(&busy))
	check(p.Int(&src))
	check(p.Int(&tag))
	check(p.Int(&plen))
	for i := range path {
		check(p.Int(&path[i]))
	}
	check(p.Bool(&hasLocal))
	for i := 0; i < 4; i++ { // pending, held, sendSeq, recvSeq counts
		check(p.Int(&zero))
	}
	return p.PackedBytes()
}

// TestShardInstallRebuildsPath: a record's path is validated against
// the program tree when its frames are rebuilt — it must stay inside
// the tree and end at a Recv — and a good path installs.
func TestShardInstallRebuildsPath(t *testing.T) {
	prog := Seq(Do(func(*PC) {}), For(3, func(int) Proc { return Recv(0, 7, nil) }))
	newJob := func() *Job {
		m, err := core.NewMachine(core.Config{NumPEs: 4, LocalPELo: 0, LocalPEHi: 2})
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewProgram(m, 4, Options{Mode: ModeEvent}, prog)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	for _, bad := range [][]int{
		{5},       // Seq index out of range
		{1, 3},    // For iteration out of range
		{0},       // ends at a Do, not a Recv
		{1},       // ends at a For
		{1, 0, 0}, // descends into a Recv
	} {
		if _, err := newJob().ShardInstall(wireRecord(t, 2, 1, 0, 7, bad)); err == nil {
			t.Fatalf("ShardInstall accepted path %v", bad)
		}
	}
	j := newJob()
	r, err := j.ShardInstall(wireRecord(t, 2, 1, 0, 7, []int{1, 2}))
	if err != nil || r != 2 {
		t.Fatalf("ShardInstall(path [1 2]) = %d, %v", r, err)
	}
	if !j.ShardOwns(2) {
		t.Fatal("installed rank is not owned locally")
	}
}
