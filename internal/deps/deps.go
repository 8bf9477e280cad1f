// Package deps builds dependence graphs (internal/graph) from machine
// instructions (internal/isa): register true/anti/output dependences with
// producer latencies, conservative memory dependences with a base+offset
// disambiguator, control dependences into block-terminating branches, and —
// for loops — distance-1 loop-carried dependences including the carried
// control edges from the back branch (the paper's Figure 3 edge set).
package deps

import (
	"slices"

	"aisched/internal/graph"
	"aisched/internal/isa"
)

// BuildBlock constructs the dependence graph of a single basic block. Every
// node's Block field is set to blockIndex.
func BuildBlock(instrs []isa.Instr, blockIndex int) *graph.Graph {
	g, _ := buildBlock(instrs, blockIndex)
	return g
}

// buildBlock is BuildBlock, also returning the per-instruction facts it
// computed so BuildLoop's carried passes can reuse them.
func buildBlock(instrs []isa.Instr, blockIndex int) (*graph.Graph, []instrInfo) {
	g := graph.New(len(instrs))
	addBlockNodes(g, instrs, blockIndex)
	infos := analyzeInstrs(instrs)
	addIntraEdges(g, instrs, infos)
	return g, infos
}

// BuildTrace constructs the dependence graph of a trace: blocks laid out
// consecutively, with register and memory dependences tracked across block
// boundaries (the cross-block edges that make anticipatory scheduling
// worthwhile) and control dependences into each block's terminating branch.
func BuildTrace(blocks [][]isa.Instr) *graph.Graph {
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	g := graph.New(total)
	all := make([]isa.Instr, 0, total)
	for bi, b := range blocks {
		addBlockNodes(g, b, bi)
		all = append(all, b...)
	}
	addIntraEdges(g, all, analyzeInstrs(all))
	// Control: branches additionally order block prefixes — an instruction
	// in a later block is control dependent on the previous block's branch.
	// These are real dependences only when the hardware cannot speculate;
	// the paper's model lets the window run ahead under branch prediction,
	// so cross-block control edges are intentionally omitted here and
	// handled by the simulator's speculation switch.
	return g
}

// BuildLoop constructs the dependence graph of a single-basic-block loop
// body: the intra-iteration edges of BuildBlock plus distance-1 loop-carried
// register, memory, and control dependences. The carried control edges run
// from the block's terminating branch to every instruction of the next
// iteration with <0,1>, matching the paper's Figure 3.
func BuildLoop(instrs []isa.Instr) *graph.Graph {
	g, infos := buildBlock(instrs, 0)
	n := len(instrs)

	// Carried register dependences: a value defined in iteration k and used
	// in iteration k+1 before any redefinition; plus carried anti/output
	// dependences to keep the register file consistent across iterations.
	for r := isa.Reg(0); r.Valid(); r++ {
		bit := uint64(1) << r
		firstDef, lastDef := -1, -1
		for i := range infos {
			if infos[i].def&bit != 0 {
				if firstDef < 0 {
					firstDef = i
				}
				lastDef = i
			}
		}
		if lastDef < 0 {
			continue
		}
		for i := range infos {
			if infos[i].use&bit == 0 {
				continue
			}
			// Carried RAW: use of r at i reads iteration k's lastDef when no
			// def of r precedes i within the iteration.
			if i <= firstDef {
				g.MustEdge(graph.NodeID(lastDef), graph.NodeID(i), infos[lastDef].lat, 1)
			}
			// Carried WAR: the next iteration's first def of r must wait for
			// iteration k's last use when that use is not already protected
			// by an intra-iteration def in between.
			if i >= firstDef {
				g.MustEdge(graph.NodeID(i), graph.NodeID(firstDef), 0, 1)
			}
		}
		// Carried WAW: last def of r → next iteration's first def (a self
		// edge when r has a single def).
		g.MustEdge(graph.NodeID(lastDef), graph.NodeID(firstDef), 0, 1)
	}

	// Carried memory dependences (conservative, same disambiguation as the
	// intra-block pass but across the iteration boundary).
	bases := analyzeBases(instrs, infos)
	for i := 0; i < n; i++ {
		a := &infos[i]
		if !a.reads && !a.writes {
			continue
		}
		for j := 0; j < n; j++ {
			b := &infos[j]
			if !a.writes && !b.writes || !b.reads && !b.writes {
				continue
			}
			if mayAlias(&instrs[i], &instrs[j], &bases) {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), a.memLat(), 1)
			}
		}
	}

	// Carried control: the back branch precedes the next iteration.
	br := -1
	for i := range infos {
		if infos[i].branch {
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

func addBlockNodes(g *graph.Graph, instrs []isa.Instr, blockIndex int) {
	for _, in := range instrs {
		g.AddNode(in.Op.String(), in.Exec(), int(in.Class()), blockIndex)
	}
}

// instrInfo is what the pairwise dependence tests need of one instruction,
// computed once per build: its defs in isa.Instr.Defs order, its valid
// register uses and defs as bit masks, its memory and branch flags, and its
// result latency.
type instrInfo struct {
	defs                  [2]isa.Reg
	nDefs                 int
	use, def              uint64 // bit r set for each valid register r
	reads, writes, branch bool
	lat                   int
}

// analyzeInstrs computes every instruction's instrInfo.
func analyzeInstrs(instrs []isa.Instr) []instrInfo {
	infos := make([]instrInfo, len(instrs))
	var uses [2]isa.Reg
	for i := range instrs {
		in, f := &instrs[i], &infos[i]
		f.nDefs = len(in.AppendDefs(f.defs[:0]))
		for _, d := range f.defs[:f.nDefs] {
			if d.Valid() {
				f.def |= 1 << d
			}
		}
		for _, u := range in.AppendUses(uses[:0]) {
			f.use |= 1 << u
		}
		f.reads, f.writes, f.branch = in.ReadsMem(), in.WritesMem(), in.IsBranch()
		f.lat = in.Latency()
	}
	return infos
}

// addIntraEdges adds the distance-0 edges of the instruction sequence; infos
// is its analyzeInstrs output.
func addIntraEdges(g *graph.Graph, instrs []isa.Instr, infos []instrInfo) {
	n := len(instrs)
	bases := analyzeBases(instrs, infos)
	for j := 0; j < n; j++ {
		bj := &infos[j]
		for i := j - 1; i >= 0; i-- {
			bi := &infos[i]
			if lat, dep := regDep(bi, bj); dep {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), lat, 0)
			}
			// Memory dependences.
			if (bi.writes && (bj.reads || bj.writes) || bj.writes && bi.reads) &&
				mayAlias(&instrs[i], &instrs[j], &bases) {
				g.MustEdge(graph.NodeID(i), graph.NodeID(j), bi.memLat(), 0)
			}
		}
		// Control: every earlier instruction in the same block precedes its
		// branch (the paper's control-dependence edges into BT); a branch
		// precedes everything after it in the sequence.
		if bj.branch {
			for i := 0; i < j; i++ {
				if g.Node(graph.NodeID(i)).Block == g.Node(graph.NodeID(j)).Block {
					g.MustEdge(graph.NodeID(i), graph.NodeID(j), 0, 0)
				}
			}
		}
		if j > 0 && infos[j-1].branch &&
			g.Node(graph.NodeID(j-1)).Block == g.Node(graph.NodeID(j)).Block {
			g.MustEdge(graph.NodeID(j-1), graph.NodeID(j), 0, 0)
		}
	}
}

// regDep reports whether b depends on a through a register, with the
// latency to honor (producer latency for RAW, 0 for WAR/WAW). Each of a's
// defs is tested in order, RAW before WAW; WAR comes last. A def that is not
// a valid register (absent from the masks) can only match an equal def of b.
func regDep(a, b *instrInfo) (int, bool) {
	for _, d := range a.defs[:a.nDefs] {
		if !d.Valid() {
			if slices.Contains(b.defs[:b.nDefs], d) {
				return 0, true // WAW
			}
			continue
		}
		bit := uint64(1) << d
		if b.use&bit != 0 {
			return a.lat, true // RAW
		}
		if b.def&bit != 0 {
			return 0, true // WAW
		}
	}
	if a.use&b.def != 0 {
		return 0, true // WAR
	}
	return 0, false
}

// baseInfo classifies base registers for the distinct-base disambiguation
// rule. A base register is TRUSTED to name a distinct object only when the
// scope never redefines it (an externally managed array base, like the
// paper's Figure 3 x/y pointers — self-updates by LOADU/STOREU preserve the
// object) or defines it exactly once by a LI whose constant is recorded.
// Registers holding computed addresses (defined by arithmetic) are never
// trusted: two different registers can hold the same address.
type baseInfo struct {
	trusted  [numRegs]bool
	hasConst [numRegs]bool
	liConst  [numRegs]int64
}

// numRegs is the number of valid registers.
const numRegs = isa.NumGPR + isa.NumCR

func analyzeBases(instrs []isa.Instr, infos []instrInfo) baseInfo {
	var info baseInfo
	var ndefs [numRegs]int
	var lastDef [numRegs]*isa.Instr
	for i := range instrs {
		in := &instrs[i]
		for _, d := range infos[i].defs[:infos[i].nDefs] {
			// Update-form self-increments keep the base within its object.
			if (in.Op == isa.LOADU || in.Op == isa.STOREU) && d == in.Base || !d.Valid() {
				continue
			}
			ndefs[d]++
			lastDef[d] = in
		}
	}
	for r := range info.trusted {
		switch {
		case ndefs[r] == 0:
			info.trusted[r] = true // externally managed (Figure 3 style)
		case ndefs[r] == 1 && lastDef[r].Op == isa.LI:
			info.trusted[r] = true
			info.hasConst[r] = true
			info.liConst[r] = lastDef[r].Imm
		}
	}
	return info
}

// isTrusted reports whether r is a trusted base register.
func (info *baseInfo) isTrusted(r isa.Reg) bool { return r.Valid() && info.trusted[r] }

// constOf returns the LI constant recorded for base register r.
func (info *baseInfo) constOf(r isa.Reg) (int64, bool) {
	if !r.Valid() {
		return 0, false
	}
	return info.liConst[r], info.hasConst[r]
}

// mayAlias is the conservative base+offset disambiguator: two memory
// references are disjoint when they use the same base register with
// different offsets (and neither updates the base), or when they use
// distinct TRUSTED base registers (see baseInfo) — distinct array objects,
// assuming the source program has no out-of-bounds accesses. Everything
// else may alias.
func mayAlias(a, b *isa.Instr, info *baseInfo) bool {
	if a.Base == isa.NoReg || b.Base == isa.NoReg {
		return true
	}
	// Same base, different constant offsets: disjoint — but only when the
	// base is trusted (never redefined in scope), otherwise the register may
	// hold different addresses at the two accesses.
	if a.Base == b.Base && a.Imm != b.Imm && info.isTrusted(a.Base) &&
		a.Op != isa.LOADU && a.Op != isa.STOREU &&
		b.Op != isa.LOADU && b.Op != isa.STOREU {
		return false
	}
	if a.Base != b.Base && info.isTrusted(a.Base) && info.isTrusted(b.Base) {
		ca, okA := info.constOf(a.Base)
		cb, okB := info.constOf(b.Base)
		if okA && okB && ca == cb {
			return true // same object loaded into two registers
		}
		return false
	}
	return true
}

// memLat is the latency of a memory dependence from this producer: a
// store's value is visible immediately (latency 0); a load feeding through
// memory is treated like its register latency.
func (f *instrInfo) memLat() int {
	if f.writes {
		return 0
	}
	return f.lat
}
