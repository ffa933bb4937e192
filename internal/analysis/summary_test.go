package analysis

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestCallGraphEdges pins the call-graph shapes the summary engine depends
// on: plain call edges, tagged go/defer edges, and spawned-literal child
// nodes with ·goN keys.
func TestCallGraphEdges(t *testing.T) {
	pkg, err := LoadPackage(filepath.Join("testdata", "src", "goroleak"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	g := BuildCallGraph([]*Package{pkg})
	dump := dumpGraph(g)
	for _, want := range []string{
		"goroleak.spawnNamed -> goroleak.spin [go]",
		"goroleak.spawnLit -> goroleak.spawnLit·go1 [go]",
		"goroleak.spawnLit·go1 -> goroleak.step [call]",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("call graph missing edge %q;\ngraph:\n%s", want, dump)
		}
	}
	if g.ByKey["goroleak.spawnLit·go1"] == nil {
		t.Errorf("spawned literal did not become a child node")
	}
}

// TestSummaryFacts spot-checks the extracted facts driving the three
// interprocedural passes.
func TestSummaryFacts(t *testing.T) {
	pkg, err := LoadPackage(filepath.Join("testdata", "src", "ctxflow"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	sums := BuildSummaries(BuildCallGraph([]*Package{pkg}))

	sleepy := sums["ctxflow.sleepy"]
	if sleepy == nil || !sleepy.HasCtx {
		t.Fatalf("ctxflow.sleepy summary missing or ctx-less: %+v", sleepy)
	}
	if len(sleepy.Blocks) != 1 || sleepy.Blocks[0].Op != "time.Sleep" {
		t.Errorf("sleepy blocks = %+v, want one time.Sleep", sleepy.Blocks)
	}
	if sleepy.BlocksNoCtx != nil {
		t.Errorf("ctx-bearing function must not carry BlocksNoCtx (callers are not responsible)")
	}

	wait := sums["ctxflow.wait"]
	if wait == nil || wait.BlocksNoCtx == nil || wait.BlocksNoCtx.Op != "channel receive" {
		t.Errorf("ctxflow.wait BlocksNoCtx = %+v, want channel receive", wait)
	}

	okFn := sums["ctxflow.ok"]
	if okFn == nil || len(okFn.Blocks) != 0 {
		t.Errorf("guarded select must not count as blocking: %+v", okFn)
	}
	if okFn.TermSig != "ctx" {
		t.Errorf("ctx.Done select case must set TermSig=ctx, got %q", okFn.TermSig)
	}

	drop := sums["ctxflow.drop"]
	if drop == nil || len(drop.CtxDrops) != 1 {
		t.Errorf("ctxflow.drop CtxDrops = %+v, want one", drop)
	}
}

// dumpGraph renders the graph as stable text (one `caller -> callee [kind]`
// line per edge).
func dumpGraph(g *CallGraph) string {
	var lines []string
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			lines = append(lines, fmt.Sprintf("%s -> %s [%s]", n.Key, e.Callee.Key, e.Kind))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
