package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// lockorder builds the module-global mutex acquisition-order graph from the
// function summaries and reports every cycle as a potential deadlock, with
// the witness chain (which acquisition, where, while holding what) printed.
//
// Nodes are lock classes — "pkg.Type.field" for struct-field mutexes,
// "pkg.var" for package-level ones — so two goroutines locking different
// *instances* of the same class still count: the class-level cycle is the
// shape that deadlocks once any two instances are shared. Edges come from
// two sources:
//
//   - a direct nested acquisition inside one function body
//     (summary.LockEdges);
//   - a call made while holding a lock, composed with the callee's
//     transitive acquisition closure (summary.HeldCalls × TransAcquires).
//
// Same-class nesting (A → A) is excluded: locking two instances of one
// class in sequence is ubiquitous and ordering within a class needs
// instance identity the summary abstraction deliberately drops.

// LockOrderPass returns the lockorder pass.
func LockOrderPass() *Pass {
	return &Pass{
		Name: "lockorder",
		Doc:  "mutex acquisition-order graph must be acyclic (cycle = potential deadlock)",
		Run:  runLockOrder,
	}
}

// lockOrderEdge is one witnessed ordered acquisition.
type lockOrderEdge struct {
	from, to string
	file     string // absolute path
	line     int
	fn       string // function whose body witnessed the edge
	viaCall  string // callee whose closure supplied the acquisition ("" for direct)
}

func (e lockOrderEdge) describe() string {
	if e.viaCall == "" {
		return fmt.Sprintf("%s acquired at %s:%d (in %s) while holding %s", e.to, e.file, e.line, e.fn, e.from)
	}
	return fmt.Sprintf("%s acquired via call to %s at %s:%d (in %s) while holding %s", e.to, e.viaCall, e.file, e.line, e.fn, e.from)
}

func runLockOrder(ctx *Context) {
	// Module-global pass: the runner invokes every pass once per package,
	// but the acquisition-order graph spans the load — run once.
	if ctx.Facts["lockorder.ran"] != nil {
		return
	}
	ctx.Facts["lockorder.ran"] = true
	sums := moduleSummaries(ctx)

	// Collect edges in deterministic (summary key) order; keep the first
	// witness per (from, to) pair.
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	adj := map[string]map[string]lockOrderEdge{}
	addEdge := func(e lockOrderEdge) {
		if e.from == e.to {
			return
		}
		m := adj[e.from]
		if m == nil {
			m = map[string]lockOrderEdge{}
			adj[e.from] = m
		}
		if _, dup := m[e.to]; !dup {
			m[e.to] = e
		}
	}
	for _, k := range keys {
		fs := sums[k]
		for _, le := range fs.LockEdges {
			addEdge(lockOrderEdge{from: le.Held, to: le.Acq, file: le.File, line: le.Line, fn: k})
		}
		for _, hc := range fs.HeldCalls {
			cs := sums[hc.Callee]
			if cs == nil {
				continue
			}
			for _, ta := range cs.TransAcquires {
				for _, held := range hc.Held {
					addEdge(lockOrderEdge{from: held, to: ta.Lock, file: hc.File, line: hc.Line, fn: k, viaCall: hc.Callee})
				}
			}
		}
	}

	// A cycle exists iff some strongly connected component of the lock
	// graph has ≥2 nodes (self-edges were excluded above). Report one
	// representative cycle per component, reconstructed by BFS inside the
	// component from its smallest node, so the finding is stable run to
	// run.
	for _, scc := range lockSCCs(adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		cycle := cycleThrough(scc[0], scc, adj)
		if cycle == nil {
			continue
		}
		var hops []string
		var witness []string
		for i := 0; i < len(cycle)-1; i++ {
			e := adj[cycle[i]][cycle[i+1]]
			hops = append(hops, cycle[i])
			witness = append(witness, e.describe())
		}
		hops = append(hops, cycle[len(cycle)-1])
		first := adj[cycle[0]][cycle[1]]
		ctx.ReportAt(first.file, first.line,
			"potential deadlock: lock-order cycle %s; %s",
			strings.Join(hops, " -> "), strings.Join(witness, "; "))
	}
}

// lockSCCs is Tarjan over the string lock graph, components emitted with
// deterministic membership (iteration over sorted node names).
func lockSCCs(adj map[string]map[string]lockOrderEdge) [][]string {
	nodes := map[string]bool{}
	for from, tos := range adj {
		nodes[from] = true
		for to := range tos {
			nodes[to] = true
		}
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strong func(n string)
	strong = func(n string) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		succs := make([]string, 0, len(adj[n]))
		for to := range adj[n] {
			succs = append(succs, to)
		}
		sort.Strings(succs)
		for _, m := range succs {
			if _, seen := index[m]; !seen {
				strong(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			var scc []string
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range names {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return sccs
}

// cycleThrough finds a shortest cycle start → ... → start staying inside
// the component, by BFS (deterministic: sorted successor order).
func cycleThrough(start string, scc []string, adj map[string]map[string]lockOrderEdge) []string {
	inSCC := map[string]bool{}
	for _, n := range scc {
		inSCC[n] = true
	}
	prev := map[string]string{}
	queue := []string{start}
	seen := map[string]bool{start: true}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		succs := make([]string, 0, len(adj[n]))
		for to := range adj[n] {
			succs = append(succs, to)
		}
		sort.Strings(succs)
		for _, m := range succs {
			if m == start {
				// Reconstruct start → ... → n → start.
				path := []string{start}
				var rev []string
				for cur := n; cur != start; cur = prev[cur] {
					rev = append(rev, cur)
				}
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, rev[i])
				}
				return append(path, start)
			}
			if !inSCC[m] || seen[m] {
				continue
			}
			seen[m] = true
			prev[m] = n
			queue = append(queue, m)
		}
	}
	return nil
}
