package deps

import (
	"fmt"
	"math/rand"
	"testing"

	"aisched/internal/cfg"
	"aisched/internal/graph"
	"aisched/internal/isa"
	"aisched/internal/minic"
	"aisched/internal/workload"
)

// The builders below are the pairwise dependence test as it was before the
// per-instruction register masks: every pair goes through Instr.Defs/Uses
// and value copies of both instructions, and the carried-register pass of
// BuildLoop rescans Defs/Uses per register. They are the oracle the
// mask-based builders must match edge for edge, in order.

func oracleBuildBlock(instrs []isa.Instr, blockIndex int) *graph.Graph {
	g := graph.New(len(instrs))
	addBlockNodes(g, instrs, blockIndex)
	oracleAddIntraEdges(g, instrs)
	return g
}

func oracleBuildTrace(blocks [][]isa.Instr) *graph.Graph {
	g := graph.New(0)
	var all []isa.Instr
	for bi, b := range blocks {
		addBlockNodes(g, b, bi)
		all = append(all, b...)
	}
	oracleAddIntraEdges(g, all)
	return g
}

func oracleBuildLoop(instrs []isa.Instr) *graph.Graph {
	g := oracleBuildBlock(instrs, 0)
	n := len(instrs)
	for r := isa.Reg(0); r.Valid(); r++ {
		lastDef, defs := -1, []int{}
		for i, in := range instrs {
			for _, d := range in.Defs() {
				if d == r {
					lastDef = i
					defs = append(defs, i)
				}
			}
		}
		if lastDef < 0 {
			continue
		}
		firstDef := defs[0]
		for i, in := range instrs {
			uses := false
			for _, u := range in.Uses() {
				if u == r {
					uses = true
				}
			}
			if uses && !oracleDefinedBefore(instrs, r, i) {
				g.MustEdge(graph.NodeID(lastDef), graph.NodeID(i), instrs[lastDef].Latency(), 1)
			}
			if uses && i >= firstDef {
				g.MustEdge(graph.NodeID(i), graph.NodeID(firstDef), 0, 1)
			}
		}
		if len(defs) > 0 && lastDef != firstDef {
			g.MustEdge(graph.NodeID(lastDef), graph.NodeID(firstDef), 0, 1)
		} else if lastDef == firstDef {
			g.MustEdge(graph.NodeID(lastDef), graph.NodeID(firstDef), 0, 1)
		}
	}
	memInfo := oracleAnalyzeBases(instrs)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := instrs[i], instrs[j]
			if !a.WritesMem() && !b.WritesMem() {
				continue
			}
			if !(a.ReadsMem() || a.WritesMem()) || !(b.ReadsMem() || b.WritesMem()) {
				continue
			}
			if oracleMayAlias(a, b, memInfo) {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), oracleMemLatency(instrs[i]), 1)
			}
		}
	}
	br := -1
	for i, in := range instrs {
		if in.IsBranch() {
			br = i
		}
	}
	if br >= 0 {
		for i := 0; i < n; i++ {
			g.MustEdge(graph.NodeID(br), graph.NodeID(i), 0, 1)
		}
	}
	return g
}

func oracleAddIntraEdges(g *graph.Graph, instrs []isa.Instr) {
	n := len(instrs)
	info := oracleAnalyzeBases(instrs)
	for j := 0; j < n; j++ {
		bj := instrs[j]
		for i := j - 1; i >= 0; i-- {
			bi := instrs[i]
			lat, dep := oracleRegDep(bi, bj)
			if dep {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), lat, 0)
			}
			if (bi.WritesMem() && (bj.ReadsMem() || bj.WritesMem()) ||
				bj.WritesMem() && bi.ReadsMem()) && oracleMayAlias(bi, bj, info) {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), oracleMemLatency(bi), 0)
			}
		}
		if bj.IsBranch() {
			for i := 0; i < j; i++ {
				if g.Node(graph.NodeID(i)).Block == g.Node(graph.NodeID(j)).Block {
					g.MustEdge(graph.NodeID(i), graph.NodeID(j), 0, 0)
				}
			}
		}
		if j > 0 && instrs[j-1].IsBranch() &&
			g.Node(graph.NodeID(j-1)).Block == g.Node(graph.NodeID(j)).Block {
			g.MustEdge(graph.NodeID(j-1), graph.NodeID(j), 0, 0)
		}
	}
}

func oracleRegDep(a, b isa.Instr) (int, bool) {
	for _, d := range a.Defs() {
		for _, u := range b.Uses() {
			if d == u {
				return a.Latency(), true
			}
		}
		for _, d2 := range b.Defs() {
			if d == d2 {
				return 0, true
			}
		}
	}
	for _, u := range a.Uses() {
		for _, d := range b.Defs() {
			if u == d {
				return 0, true
			}
		}
	}
	return 0, false
}

type oracleBaseInfo struct {
	trusted map[isa.Reg]bool
	liConst map[isa.Reg]int64
}

func oracleAnalyzeBases(instrs []isa.Instr) oracleBaseInfo {
	info := oracleBaseInfo{trusted: map[isa.Reg]bool{}, liConst: map[isa.Reg]int64{}}
	defs := map[isa.Reg][]isa.Instr{}
	for _, in := range instrs {
		for _, d := range in.Defs() {
			if (in.Op == isa.LOADU || in.Op == isa.STOREU) && d == in.Base {
				continue
			}
			defs[d] = append(defs[d], in)
		}
	}
	for r := isa.Reg(0); r.Valid(); r++ {
		ds := defs[r]
		switch {
		case len(ds) == 0:
			info.trusted[r] = true
		case len(ds) == 1 && ds[0].Op == isa.LI:
			info.trusted[r] = true
			info.liConst[r] = ds[0].Imm
		}
	}
	return info
}

func oracleMayAlias(a, b isa.Instr, info oracleBaseInfo) bool {
	if a.Base == isa.NoReg || b.Base == isa.NoReg {
		return true
	}
	if a.Base == b.Base && a.Imm != b.Imm && info.trusted[a.Base] &&
		a.Op != isa.LOADU && a.Op != isa.STOREU &&
		b.Op != isa.LOADU && b.Op != isa.STOREU {
		return false
	}
	if a.Base != b.Base && info.trusted[a.Base] && info.trusted[b.Base] {
		ca, okA := info.liConst[a.Base]
		cb, okB := info.liConst[b.Base]
		if okA && okB && ca == cb {
			return true
		}
		return false
	}
	return true
}

func oracleMemLatency(producer isa.Instr) int {
	if producer.WritesMem() {
		return 0
	}
	return producer.Latency()
}

func oracleDefinedBefore(instrs []isa.Instr, r isa.Reg, i int) bool {
	for k := 0; k < i; k++ {
		for _, d := range instrs[k].Defs() {
			if d == r {
				return true
			}
		}
	}
	return false
}

// sameEdges reports the first difference between two graphs' nodes and
// per-node out and in edge lists, compared in order.
func sameEdges(got, want *graph.Graph) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d nodes, want %d", got.Len(), want.Len())
	}
	for v := 0; v < got.Len(); v++ {
		id := graph.NodeID(v)
		if got.Node(id) != want.Node(id) {
			return fmt.Errorf("node %d: %+v, want %+v", v, got.Node(id), want.Node(id))
		}
		if g, w := fmt.Sprint(got.Out(id)), fmt.Sprint(want.Out(id)); g != w {
			return fmt.Errorf("node %d out edges:\n got %s\nwant %s", v, g, w)
		}
		if g, w := fmt.Sprint(got.In(id)), fmt.Sprint(want.In(id)); g != w {
			return fmt.Errorf("node %d in edges:\n got %s\nwant %s", v, g, w)
		}
	}
	return nil
}

// checkAllBuilders compares BuildTrace over blocks, and BuildBlock and
// BuildLoop over each block, with their oracles.
func checkAllBuilders(t *testing.T, name string, blocks [][]isa.Instr) {
	t.Helper()
	if err := sameEdges(BuildTrace(blocks), oracleBuildTrace(blocks)); err != nil {
		t.Fatalf("%s: BuildTrace: %v", name, err)
	}
	for bi, b := range blocks {
		if err := sameEdges(BuildBlock(b, bi), oracleBuildBlock(b, bi)); err != nil {
			t.Fatalf("%s: BuildBlock(block %d): %v", name, bi, err)
		}
		if err := sameEdges(BuildLoop(b), oracleBuildLoop(b)); err != nil {
			t.Fatalf("%s: BuildLoop(block %d): %v", name, bi, err)
		}
	}
}

// compiledTraces compiles a random mini-C program and returns the
// instruction blocks of each selected trace.
func compiledTraces(t *testing.T, r *rand.Rand) [][][]isa.Instr {
	t.Helper()
	c, err := minic.Compile(workload.RandomProgram(r, 4+r.Intn(24)))
	if err != nil {
		t.Fatal(err)
	}
	cg, err := cfg.FromCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	var out [][][]isa.Instr
	for _, tr := range cg.SelectTraces() {
		var blocks [][]isa.Instr
		for _, bi := range tr {
			if bs := cg.Blocks[bi].Instrs; len(bs) > 0 {
				blocks = append(blocks, bs)
			}
		}
		out = append(out, blocks)
	}
	return out
}

func TestBuildersMatchOracleOnPrograms(t *testing.T) {
	programs := 1000
	if testing.Short() {
		programs = 200
	}
	r := rand.New(rand.NewSource(14))
	for p := 0; p < programs; p++ {
		for ti, blocks := range compiledTraces(t, r) {
			checkAllBuilders(t, fmt.Sprintf("program %d trace %d", p, ti), blocks)
		}
	}
}

// randomInstr draws an instruction over a small register pool so pairs
// collide often, including update forms (two defs), absent registers (a
// NoReg destination is a def that is not a valid register) and out-of-range
// registers.
func randomInstr(r *rand.Rand) isa.Instr {
	reg := func() isa.Reg {
		switch k := r.Intn(20); {
		case k == 0:
			return isa.NoReg
		case k == 1:
			return isa.Reg(isa.NumGPR + isa.NumCR + r.Intn(2))
		case k < 4:
			return isa.CR(r.Intn(2))
		default:
			return isa.GPR(r.Intn(6))
		}
	}
	ops := []isa.Opcode{isa.NOP, isa.LI, isa.MOV, isa.ADD, isa.SUB, isa.ADDI, isa.MUL, isa.DIV,
		isa.LOAD, isa.LOADU, isa.STORE, isa.STOREU, isa.CMP, isa.CMPI, isa.BT, isa.BF, isa.B}
	return isa.Instr{
		Op:   ops[r.Intn(len(ops))],
		Dst:  reg(),
		SrcA: reg(),
		SrcB: reg(),
		Base: reg(),
		Imm:  int64(r.Intn(3)),
	}
}

func TestBuildersMatchOracleOnRandomInstrs(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for c := 0; c < 1000; c++ {
		blocks := make([][]isa.Instr, 1+r.Intn(4))
		for bi := range blocks {
			blocks[bi] = make([]isa.Instr, 1+r.Intn(10))
			for i := range blocks[bi] {
				blocks[bi][i] = randomInstr(r)
			}
		}
		checkAllBuilders(t, fmt.Sprintf("case %d", c), blocks)
	}
}

// storeRun is n stores off one never-redefined base at distinct offsets: n²/2
// instruction pairs, and not a single edge among them.
func storeRun(n int) [][]isa.Instr {
	b := make([]isa.Instr, n)
	for i := range b {
		b[i] = isa.Instr{Op: isa.STORE, Dst: isa.NoReg, SrcA: isa.GPR(1), SrcB: isa.NoReg,
			Base: isa.GPR(2), Imm: int64(4 * i)}
	}
	return [][]isa.Instr{b}
}

func TestBuildTraceAllocsIndependentOfPairs(t *testing.T) {
	allocs := func(n int) float64 {
		blocks := storeRun(n)
		if g := BuildTrace(blocks); g.NumEdges() != 0 {
			t.Fatalf("store run of %d has %d edges, want 0", n, g.NumEdges())
		}
		return testing.AllocsPerRun(10, func() { BuildTrace(blocks) })
	}
	// 16× the instruction pairs; the graph's own per-node slices are
	// preallocated, so the builder's allocations must stay flat.
	small, large := allocs(64), allocs(256)
	if large != small {
		t.Fatalf("BuildTrace allocs grew with the pair count: %v at 64 instrs, %v at 256", small, large)
	}
}
