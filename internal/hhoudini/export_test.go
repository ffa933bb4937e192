package hhoudini

import "sort"

// Abduct is one solved obligation of a finished Learn: a target and the
// abduct its query returned, in the solver's core order.
type Abduct struct {
	Target Pred
	Preds  []Pred
}

// Abducts returns every solved obligation's abduct, sorted by target ID.
func Abducts(l *Learner) []Abduct {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Abduct
	for _, e := range l.entries {
		if e.solved {
			out = append(out, Abduct{Target: e.pred, Preds: e.abduct})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target.ID() < out[j].Target.ID() })
	return out
}
