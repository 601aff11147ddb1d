package scan

import "slices"

// Shared-scan predicate union. When several co-submitted jobs scan the same
// split-directories, the engine drives one cursor set for all of them: the
// shared cursors push down the OR of the jobs' predicates (so group and
// file pruning fire only where *no* job can match), and each job keeps its
// own predicate as a residual that demultiplexes the shared record stream.
// Evaluation of identical residuals is shared through EvalGroups, so N jobs
// asking the same question cost one answer per record.

// Union combines the predicates of co-scheduled jobs into one shared scan.
type Union struct {
	// Shared is the predicate the shared cursor set pushes down: the OR of
	// the members' distinct predicates. It is nil when any member scans
	// unfiltered — the shared scan must then surface every record.
	Shared Predicate
	// EvalGroups maps each member to an evaluation-sharing group: members
	// whose residuals render identically share one per-record verdict.
	// -1 marks members with nil residuals.
	EvalGroups []int
	// Groups holds each evaluation group's residual, in first-appearance
	// order across members.
	Groups []Predicate
}

// NewUnion builds the union of per-member predicates (nil entries mean the
// member scans unfiltered), printing each once to find the identical ones.
func NewUnion(preds []Predicate) *Union {
	keys := make([]string, len(preds))
	for i, p := range preds {
		if p != nil && len(preds) > 1 { // a lone predicate needs no key
			keys[i] = p.String()
		}
	}
	return union(len(preds), func(i int) (string, Predicate) { return keys[i], preds[i] })
}

// Sub returns the union of members (indices into the predicates u was built
// from) that NewUnion would build from their predicates, without printing
// one: its eval groups come from u's.
func (u *Union) Sub(members []int) *Union {
	return union(len(members), func(i int) (int, Predicate) {
		if g := u.EvalGroups[members[i]]; g >= 0 {
			return g, u.Groups[g]
		}
		return -1, nil
	})
}

// union groups n members' predicates by the identity key member(i) gives.
func union[K comparable](n int, member func(i int) (K, Predicate)) *Union {
	u := &Union{EvalGroups: make([]int, n)}
	groupOf := make(map[K]int)
	for i := range n {
		key, p := member(i)
		g, ok := groupOf[key]
		switch {
		case p == nil:
			g = -1
		case !ok:
			g = len(u.Groups)
			groupOf[key] = g
			u.Groups = append(u.Groups, p)
		}
		u.EvalGroups[i] = g
	}
	if len(u.Groups) > 0 && !slices.Contains(u.EvalGroups, -1) {
		u.Shared = Or(u.Groups...)
	}
	return u
}
