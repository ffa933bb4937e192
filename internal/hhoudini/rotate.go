package hhoudini

import (
	"hhoudini/internal/circuit"
	"hhoudini/internal/sat"
)

// rotation proves core literals critical by simulation during one query's
// core minimisation: model rotation (Belov & Marques-Silva, "Accelerating
// MUS extraction with recursive model rotation", FMCAD 2011), one level
// deep. A deletion probe of cur \ {l} that comes back Sat hands over a
// state s and inputs i with the target true at s, every member of cur but
// l true at s, and the target false at the successor s'. If repairing p_l
// and breaking p_k turns s into a state s* at which the target and every
// member of cur but k hold, and the target still fails at the successor
// of s* under the same inputs, then s* and i satisfy cur \ {k}: k is
// critical, and sat.MinimizeCore never probes it.
//
// The claim is checked, not assumed: Pred.Eval confirms every predicate the
// rotation touched on s*, members whose registers it left alone hold
// because they held at s, and the inputs are the model's, so the
// environment assumption (which constrains primary inputs only, see
// System) still holds. The successor comes from a 64-lane ConeLanes pass
// over the query's own encoded cone. Registers wider than 64 bits are
// never rotated: a Snapshot keeps only their low 64 bits.
type rotation struct {
	l      *Learner
	enc    *circuit.Encoder
	lanes  *circuit.ConeLanes
	target predRegs
	bySel  map[sat.Lit]Pred
	preds  map[sat.Lit]*predRegs // by selector, resolved on first use
	proven []bool                // by selector variable: already known critical
	claims int64                 // literals proven critical by simulation

	// state holds s on the target's and cur's registers; a candidate
	// lane's overrides, and a lane's successor values of the target's
	// registers (succ), are applied to it and undone in turn.
	state circuit.Snapshot
	succ  []regVal
	// batch is the lanes of the next pass: per lane, the literal it would
	// prove and its register overrides (overs[batch[i].from:batch[i].to]).
	batch []rotLane
	overs []regVal
	saved []uint64 // values apply replaced, for undo
	// curPreds (aligned with cur), reps, viable and out are critical's
	// per-call buffers.
	curPreds []*predRegs
	reps     [3][]regVal
	viable   [][]regVal
	out      []sat.Lit
}

// predRegs is a predicate with its registers resolved to declaration
// indices. ok is false when a register is unknown or wider than 64 bits.
type predRegs struct {
	p    Pred
	regs []int
	ok   bool
}

type regVal struct {
	reg int
	val uint64
}

type rotLane struct {
	k        sat.Lit
	from, to int
}

func (l *Learner) newRotation(enc *circuit.Encoder, target Pred, bySel map[sat.Lit]Pred) *rotation {
	return &rotation{l: l, enc: enc, target: predRegs{p: target}, bySel: bySel}
}

// start sizes the rotation's tables at the query's first Sat probe; a
// query whose minimisation makes none pays for none of them.
func (r *rotation) start() {
	r.lanes = r.enc.ConeLanes()
	r.target = r.l.resolve(r.target.p)
	r.preds = make(map[sat.Lit]*predRegs)
	r.proven = make([]bool, r.enc.S.NumVars())
	r.state = make(circuit.Snapshot, len(r.l.sys.Circuit.Regs()))
}

// resolve maps a predicate's Vars to register declaration indices.
func (l *Learner) resolve(p Pred) predRegs {
	regs := l.sys.Circuit.Regs()
	pr := predRegs{p: p, ok: true}
	for _, v := range p.Vars() {
		i := l.sys.Circuit.RegIndex(v)
		if i < 0 || regs[i].Width > 64 {
			pr.ok = false
			continue
		}
		pr.regs = append(pr.regs, i)
	}
	return pr
}

// pred returns the resolved predicate behind a selector.
func (r *rotation) pred(sel sat.Lit) *predRegs {
	pr := r.preds[sel]
	if pr == nil {
		v := r.l.resolve(r.bySel[sel])
		pr = &v
		r.preds[sel] = pr
	}
	return pr
}

// critical is the sat.MinimizeCore hook: called after the probe of
// cur \ {dropped} returned Sat, it returns the members of cur the probe's
// model, rotated, proves critical. The slice is valid until the next call.
func (r *rotation) critical(cur []sat.Lit, dropped sat.Lit) []sat.Lit {
	if r.state == nil {
		r.start()
	}
	r.proven[dropped.Var()] = true
	pl := r.pred(dropped)
	if !r.target.ok || !pl.ok || len(pl.regs) == 0 {
		return nil
	}
	r.lanes.Load()
	if !r.read(&r.target) || !r.read(pl) {
		return nil
	}
	r.curPreds = r.curPreds[:0]
	for _, k := range cur {
		pk := r.pred(k)
		if pk.ok {
			r.read(pk)
		}
		r.curPreds = append(r.curPreds, pk)
	}
	c := r.l.sys.Circuit
	// Three repairs of p_l: its registers back at their reset values (every
	// candidate holds at reset, runAbduct filters on it), or its first
	// register copied onto the others, or its last register copied onto
	// the others (left onto right, or right onto left, for a relational
	// predicate).
	reps := &r.reps
	for i := range reps {
		reps[i] = reps[i][:0]
	}
	for _, reg := range pl.regs {
		reps[0] = append(reps[0], regVal{reg, r.l.init[reg]})
	}
	if n := len(pl.regs); n > 1 {
		first, last := pl.regs[0], pl.regs[n-1]
		for _, reg := range pl.regs[1:] {
			reps[1] = append(reps[1], regVal{reg, r.state[first] & widthMask(c, reg)})
		}
		for _, reg := range pl.regs[:n-1] {
			reps[2] = append(reps[2], regVal{reg, r.state[last] & widthMask(c, reg)})
		}
	}
	r.viable = r.viable[:0]
	for _, rep := range reps {
		if r.repairWorks(pl, rep) {
			r.viable = append(r.viable, rep)
		}
	}
	if len(r.viable) == 0 {
		return nil
	}
	out := r.out[:0]
	r.batch, r.overs = r.batch[:0], r.overs[:0]
	for i, k := range cur {
		if r.proven[k.Var()] {
			continue
		}
		pk := r.curPreds[i]
		if !pk.ok || len(pk.regs) == 0 {
			continue
		}
		// Two breaks of p_k: bit 0 or the top bit of its last register
		// flipped.
		last := pk.regs[len(pk.regs)-1]
		w := c.Regs()[last].Width
		flips := [2]uint64{1, 1 << uint(w-1)}
		if w == 1 {
			flips[1] = 0
		}
		for _, rep := range r.viable {
			for _, flip := range flips {
				if flip != 0 && r.admit(cur, dropped, k, pl, pk, rep, last, flip) {
					if len(r.batch) == circuit.NumLanes {
						out = r.pass(out)
					}
				}
			}
		}
	}
	if len(r.batch) > 0 {
		out = r.pass(out)
	}
	r.out = out
	r.claims += int64(len(out))
	return out
}

// repairWorks reports whether rep, applied to s, makes p_l hold and
// keeps the target holding. A repair that does not is tried with no break.
func (r *rotation) repairWorks(pl *predRegs, rep []regVal) bool {
	if len(rep) == 0 {
		return false
	}
	r.apply(rep)
	ok := r.holds(pl.p, true) && r.holds(r.target.p, true)
	r.undo(rep)
	return ok
}

// apply writes overrides into state, logging the values they replace.
func (r *rotation) apply(ovs []regVal) {
	for _, o := range ovs {
		r.saved = append(r.saved, r.state[o.reg])
		r.state[o.reg] = o.val
	}
}

// undo restores the values the last applied overrides ovs replaced.
func (r *rotation) undo(ovs []regVal) {
	for i := len(ovs) - 1; i >= 0; i-- {
		n := len(r.saved) - 1
		r.state[ovs[i].reg] = r.saved[n]
		r.saved = r.saved[:n]
	}
}

// read copies the model's values of a predicate's registers into state.
func (r *rotation) read(pr *predRegs) bool {
	for _, reg := range pr.regs {
		v, ok := r.lanes.Reg(reg)
		if !ok {
			pr.ok = false
			return false
		}
		r.state[reg] = v
	}
	return true
}

func widthMask(c *circuit.Circuit, reg int) uint64 {
	if w := c.Regs()[reg].Width; w < 64 {
		return 1<<uint(w) - 1
	}
	return ^uint64(0)
}

// admit builds the lane that repairs p_l with rep and breaks p_k by
// flipping bits flip of register last, and queues it when Eval confirms,
// on the rotated state, that p_l holds, p_k fails, the target holds and
// every other member of cur whose registers the lane changed still holds.
func (r *rotation) admit(cur []sat.Lit, dropped, k sat.Lit, pl, pk *predRegs, rep []regVal, last int, flip uint64) bool {
	from := len(r.overs)
	r.overs = append(append(r.overs, rep...), regVal{reg: last})
	lane := r.overs[from:]
	r.apply(rep)
	lane[len(rep)].val = r.state[last] ^ flip // the break applies to the repaired state
	r.apply(lane[len(rep):])
	ok := r.holds(pl.p, true) && r.holds(pk.p, false) && r.holds(r.target.p, true)
	for i, m := range cur {
		if !ok {
			break
		}
		if m == k || m == dropped {
			continue
		}
		pm := r.curPreds[i]
		if touches(pm.regs, lane) {
			ok = pm.ok && r.holds(pm.p, true)
		}
	}
	r.undo(lane)
	if !ok {
		r.overs = r.overs[:from]
		return false
	}
	r.batch = append(r.batch, rotLane{k: k, from: from, to: len(r.overs)})
	return true
}

// holds reports whether p evaluates to want on state; an Eval error
// counts as no.
func (r *rotation) holds(p Pred, want bool) bool {
	v, err := p.Eval(r.l.sys.Circuit, r.state)
	return err == nil && v == want
}

func touches(regs []int, lane []regVal) bool {
	for _, reg := range regs {
		for _, o := range lane {
			if o.reg == reg {
				return true
			}
		}
	}
	return false
}

// pass steps the queued lanes one transition and appends to out every
// literal whose lane's successor violates the target.
func (r *rotation) pass(out []sat.Lit) []sat.Lit {
	r.lanes.Reset()
	var refused uint64 // lanes the pass cannot simulate as Eval saw them
	for lane, b := range r.batch {
		for _, o := range r.overs[b.from:b.to] {
			if !r.lanes.SetReg(lane, o.reg, o.val) {
				refused |= 1 << uint(lane)
			}
		}
	}
	r.lanes.Step()
	for lane, b := range r.batch {
		if r.proven[b.k.Var()] || refused>>uint(lane)&1 != 0 {
			continue
		}
		r.succ = r.succ[:0]
		for _, reg := range r.target.regs {
			v, ok := r.lanes.Next(lane, reg)
			if !ok {
				r.target.ok = false // its next state is not encoded: never claim
				r.batch, r.overs = r.batch[:0], r.overs[:0]
				return out
			}
			r.succ = append(r.succ, regVal{reg, v})
		}
		r.apply(r.succ)
		fails := r.holds(r.target.p, false)
		r.undo(r.succ)
		if fails {
			r.proven[b.k.Var()] = true
			out = append(out, b.k)
		}
	}
	r.batch, r.overs = r.batch[:0], r.overs[:0]
	return out
}
