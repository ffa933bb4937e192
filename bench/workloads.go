package main

// The four workloads. Each is a setup followed by identical rounds; a round
// is a fixed, ordered list of verdict operations, and one sample is one
// round. All callers wait for their reply before asking again (a CLI user,
// a CI job, a client polling its own job), so every workload is a closed
// loop; load comes from this one process with at most two workers or two
// client connections, fixed here and not derived from the host, so two
// hosts run the same work.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	core "hhoudini/internal/hhoudini"
)

// largeDesign is the biggest design the rounds verify. The paper's sweep
// tops out at MegaOoO, but one cold MegaOoO verification is ~7 s on the
// 2-core sandbox and the benchmark contract allows ~30 s for a whole run of
// at least five rounds plus warm-up; MediumOoO (~2.3 s) keeps the
// design-size axis inside that budget. MegaOoO is measured by -attribution.
const largeDesign = "medium"

// runEnv is what a workload's phases share.
type runEnv struct {
	seed    int64
	scratch string // removed when the run ends, on every exit path
}

// roundData is one round: its operations and what the round cost. Only the
// time between a request and its verdict is on the clock; staging a scratch
// copy of a proof store is not.
type roundData struct {
	index  int // -1 for the warm-up round
	traced bool
	wall   float64 // seconds
	cpu    float64 // user+system CPU seconds of the process
	ops    []opResult
}

type workload interface {
	// setup builds what the rounds share. It is not timed by round_s and is
	// part of setup_s.
	setup(e *runEnv) error
	// round answers the round's verdict list once; tr is nil on an untraced
	// round.
	round(e *runEnv, index int, tr *tracer) roundData
	// finish runs after the clock has stopped. It releases what setup
	// acquired and returns the invariants to audit plus, for workloads whose
	// rounds cannot be taken apart from outside, an in-process replay of the
	// round's distinct verdicts to attribute layer time to.
	finish(e *runEnv, last roundData, tr *tracer) (audits []auditItem, replay []opResult, err error)
	// workers is the learner parallelism of the workload's operations.
	workers() int
	// storeDir is a directory holding a proof store as the workload leaves
	// it, for the proofdb probes; "" when the workload has no store.
	storeDir() string
}

type workloadDef struct {
	name, why string
	new       func() workload
}

var (
	coldRound = []opSpec{
		{kind: kindSynthesize, design: "inorder"},
		{kind: kindSynthesize, design: "small"},
		{kind: kindVerify, design: largeDesign},
		{kind: kindVerify, design: "inorder", unsafe: true},
		{kind: kindVerify, design: "small", unsafe: true},
	}
	warmRound = []opSpec{
		{kind: kindVerify, design: "inorder"},
		{kind: kindVerify, design: "small"},
		{kind: kindVerify, design: "small+dbg"},
		{kind: kindVerify, design: largeDesign},
	}
)

var workloads = []workloadDef{
	{
		name: "cold-seq",
		why:  "one-shot CLI use, one worker: abduction queries (sat, circuit encoding, hhoudini worklist) do the work, memo/disk/serve layers none; counts repeat exactly",
		new:  func() workload { return &cliWorkload{nworkers: 1, ops: coldRound} },
	},
	{
		name: "cold-par",
		why:  "the cold round with two workers and clause sharing: per-worker encoder pools, clause exchange and cache locking, so cross-worker coordination shows its cost",
		new:  func() workload { return &cliWorkload{nworkers: 2, ops: coldRound} },
	},
	{
		name: "warm-restart",
		why:  "veloct -persist after a process restart: every query is a disk memo hit, so the wall is proofdb load/replay/rewrite, circuit fingerprinting and example generation",
		new: func() workload {
			return &cliWorkload{nworkers: 1, ops: warmRound,
				snapshotPrime: []string{"inorder", largeDesign}, journalPrime: []string{"small"}}
		},
	},
	{
		name: "serve-mix",
		why:  "steady-state veloctd over HTTP, two polling clients: in-memory warm path, shared cache mutex, queue/JSON/poll overhead, one cold tenant per round",
		new:  func() workload { return &serveWorkload{jobs: serveJobs} },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// cliWorkload runs its operations one after another, each from
// design.New… through veloct.New with a fresh VerifyCache, exactly as a
// cmd/veloct process starts. With a primed store every operation starts
// from its own copy of it, as a re-run after a restart.
type cliWorkload struct {
	nworkers int
	ops      []opSpec
	// snapshotPrime and journalPrime are the designs setup verifies cold to
	// prime the store, and where their records are left: in the snapshot
	// file (the store is closed cleanly after them) or only in journal
	// segments (the store is then abandoned as by kill -9, so every timed
	// open replays them). Both empty: no store.
	snapshotPrime, journalPrime []string
	pristine                    string
}

func (w *cliWorkload) persist() bool { return len(w.snapshotPrime)+len(w.journalPrime) > 0 }

func (w *cliWorkload) workers() int { return w.nworkers }

func (w *cliWorkload) storeDir() string { return w.pristine }

// setup primes the pristine store, if the workload has one.
func (w *cliWorkload) setup(e *runEnv) error {
	if !w.persist() {
		return nil
	}
	w.pristine = filepath.Join(e.scratch, "pristine")
	prime := func(designs []string) error {
		for _, d := range designs {
			res := runOp(opSpec{kind: kindVerify, design: d},
				opEnv{seed: e.seed, workers: w.nworkers, cacheDir: w.pristine, keepStore: true})
			if res.err != nil {
				return fmt.Errorf("prime %s: %w", d, res.err)
			}
		}
		return nil
	}
	if err := prime(w.snapshotPrime); err != nil {
		return err
	}
	if err := core.CloseProofDBs(); err != nil {
		return err
	}
	if err := prime(w.journalPrime); err != nil {
		return err
	}
	core.CrashProofDBs()
	return nil
}

func (w *cliWorkload) round(e *runEnv, index int, tr *tracer) roundData {
	rd := roundData{index: index, traced: tr != nil}
	for i, spec := range w.ops {
		env := opEnv{seed: e.seed, workers: w.nworkers, tr: tr, round: index}
		if w.persist() {
			env.cacheDir = filepath.Join(e.scratch, fmt.Sprintf("store-%d", i))
			if err := copyDir(w.pristine, env.cacheDir); err != nil {
				rd.ops = append(rd.ops, opResult{spec: spec, err: err})
				continue
			}
		}
		cpu := cpuSeconds()
		res := runOp(spec, env)
		rd.cpu += cpuSeconds() - cpu
		rd.wall += res.wall
		rd.ops = append(rd.ops, res)
		if w.persist() {
			os.RemoveAll(env.cacheDir)
		}
	}
	return rd
}

func (w *cliWorkload) finish(e *runEnv, last roundData, tr *tracer) ([]auditItem, []opResult, error) {
	var audits []auditItem
	for _, op := range last.ops {
		if op.audit != nil {
			audits = append(audits, *op.audit)
		}
	}
	return audits, nil, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
