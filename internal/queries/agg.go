package queries

import (
	"cmp"
	"slices"
	"sort"

	"crystal/internal/crystal"
	"crystal/internal/sched"
)

// AggFunc is an aggregate function over one of the three AggKind input
// expressions (COUNT ignores its expression).
type AggFunc int

const (
	FuncSum AggFunc = iota
	FuncCount
	FuncAvg
	FuncMin
	FuncMax
)

// String returns the SQL spelling of the function.
func (f AggFunc) String() string {
	switch f {
	case FuncCount:
		return "COUNT"
	case FuncAvg:
		return "AVG"
	case FuncMin:
		return "MIN"
	case FuncMax:
		return "MAX"
	default:
		return "SUM"
	}
}

// AggSpec is one aggregate of a multi-aggregate statement: a function over
// one of the AggKind input expressions. FuncCount ignores Expr (COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Expr AggKind
}

// Slots returns the number of 8-byte accumulator slots the aggregate needs:
// AVG carries (sum, count) so it can merge exactly across partials; every
// other function needs one.
func (s AggSpec) Slots() int {
	if s.Func == FuncAvg {
		return 2
	}
	return 1
}

// OrderKey is one ORDER BY key. Item >= 0 orders by the Item'th aggregate of
// AggList(); Item == -1 orders by group payload slot Group. Ties cascade to
// the next key and finally to the packed group key ascending, so ORDER BY
// always defines a total order — the reason every engine, placement, and
// sort algorithm must produce byte-identical output.
type OrderKey struct {
	Item  int
	Group int
	Desc  bool
}

// AggList returns the statement's aggregates: Aggs when set, otherwise the
// list of one that the Agg spelling stands for, SUM over Agg.
func (q *Query) AggList() []AggSpec {
	if q.Aggs != nil {
		return q.Aggs
	}
	return []AggSpec{{Func: FuncSum, Expr: q.Agg}}
}

// AggColumns returns the distinct fact columns the statement's aggregate
// expressions read, in first-appearance order (Agg.Columns() for a
// statement spelled with Agg).
func (q *Query) AggColumns() []string {
	var cols []string
	for _, s := range q.AggList() {
		if s.Func == FuncCount {
			continue
		}
		for _, c := range s.Expr.Columns() {
			colIndex(&cols, c)
		}
	}
	return cols
}

// aggState is the accumulator layout of a statement's aggregate list: the
// slots each aggregate owns, each slot's merge operator, and where each
// aggregate's input columns sit in AggColumns order. Compile builds it once
// onto the Plan; every kernel, the merge and finalizeGroups read that one.
type aggState struct {
	specs  []AggSpec
	cols   []string
	colIdx [][]int
	slotOf []int
	ops    []crystal.SlotOp
	// groups is len(q.GroupPayloads()), counted once so that the run path
	// never builds that slice.
	groups int
}

func newAggState(q *Query) *aggState {
	st := &aggState{specs: q.AggList(), cols: q.AggColumns(), groups: len(q.GroupPayloads())}
	for _, s := range st.specs {
		st.slotOf = append(st.slotOf, len(st.ops))
		var idx []int
		if s.Func != FuncCount {
			for _, c := range s.Expr.Columns() {
				idx = append(idx, colIndex(&st.cols, c))
			}
		}
		st.colIdx = append(st.colIdx, idx)
		switch s.Func {
		case FuncMin:
			st.ops = append(st.ops, crystal.SlotMin)
		case FuncMax:
			st.ops = append(st.ops, crystal.SlotMax)
		case FuncAvg:
			st.ops = append(st.ops, crystal.SlotAdd, crystal.SlotAdd)
		default:
			st.ops = append(st.ops, crystal.SlotAdd)
		}
	}
	return st
}

func (st *aggState) slots() int { return len(st.ops) }

// reset overwrites an accumulator vector with the merge identities.
func (st *aggState) reset(acc []int64) {
	for i, op := range st.ops {
		acc[i] = op.Identity()
	}
}

// untouched reports whether acc is still the identity vector: no row, or
// only rows whose every contribution left its slot where it started.
func (st *aggState) untouched(acc []int64) bool {
	for i, op := range st.ops {
		if acc[i] != op.Identity() {
			return false
		}
	}
	return true
}

// at returns key's accumulator vector in t, at the merge identities when the
// key is new; like AccTable.At's, the slice dies at the next call.
func (st *aggState) at(t *sched.AccTable, key int64) []int64 {
	acc, fresh := t.At(key)
	if fresh {
		st.reset(acc)
	}
	return acc
}

// mergeTable merges from into the table to slot-wise, group by group, and
// returns the merged table. A nil to adopts from whole — its producer is done
// with it — so the first table of a merge is never copied.
func (st *aggState) mergeTable(to, from *sched.AccTable) *sched.AccTable {
	if to == nil {
		return from
	}
	from.Each(func(k int64, acc []int64) { st.merge(st.at(to, k), acc) })
	return to
}

// backfill gives a statement with no group-by the one row it always yields:
// an empty (or nil) table gains key 0 at the merge identities.
func (st *aggState) backfill(t *sched.AccTable) *sched.AccTable {
	if st.groups > 0 || t.Len() > 0 {
		return t
	}
	if t == nil {
		t = sched.NewAccTable(st.slots(), 1)
	}
	st.at(t, 0)
	return t
}

// eval computes spec i's input expression over one row's AggColumns values.
func (st *aggState) eval(i int, vals []int32) int64 {
	idx := st.colIdx[i]
	switch st.specs[i].Expr {
	case AggSumExtDisc:
		return int64(vals[idx[0]]) * int64(vals[idx[1]])
	case AggSumProfit:
		return int64(vals[idx[0]]) - int64(vals[idx[1]])
	default:
		return int64(vals[idx[0]])
	}
}

// update merges one row directly into an accumulator vector.
func (st *aggState) update(acc []int64, vals []int32) {
	for i, s := range st.specs {
		slot := st.slotOf[i]
		switch s.Func {
		case FuncCount:
			acc[slot]++
		case FuncAvg:
			acc[slot] += st.eval(i, vals)
			acc[slot+1]++
		case FuncMin:
			if v := st.eval(i, vals); v < acc[slot] {
				acc[slot] = v
			}
		case FuncMax:
			if v := st.eval(i, vals); v > acc[slot] {
				acc[slot] = v
			}
		default:
			acc[slot] += st.eval(i, vals)
		}
	}
}

// merge combines two accumulator vectors slot-wise; every operator is
// associative and commutative, so partials merge exactly in any order.
func (st *aggState) merge(dst, src []int64) {
	for s, op := range st.ops {
		dst[s] = op.Merge(dst[s], src[s])
	}
}

// finalize converts a raw accumulator vector into the per-aggregate values,
// one per spec, in out: AVG divides (integer division, matching the
// dictionary-coded int columns), and untouched MIN/MAX sentinels — only
// possible for the backfilled global aggregate row — collapse to 0.
func (st *aggState) finalize(acc, out []int64) {
	for i, s := range st.specs {
		out[i] = 0
		slot := st.slotOf[i]
		switch s.Func {
		case FuncAvg:
			if acc[slot+1] != 0 {
				out[i] = acc[slot] / acc[slot+1]
			}
		case FuncMin, FuncMax:
			if acc[slot] != st.ops[slot].Identity() {
				out[i] = acc[slot]
			}
		default:
			out[i] = acc[slot]
		}
	}
}

// aggRowBytes is the per-group footprint of the aggregation table the
// engines price: the 8-byte packed key plus 8 bytes per accumulator slot
// (16 for a single SUM).
func aggRowBytes(q *Query) int64 {
	slots := 0
	for _, s := range q.AggList() {
		slots += s.Slots()
	}
	return int64(8 + 8*slots)
}

// AggRowBytes exposes the per-group accumulator footprint to the planner,
// which prices merge traffic with the same number the executor charges.
func (q *Query) AggRowBytes() int64 { return aggRowBytes(q) }

// finalizeGroups converts a merged accumulator table into the Result's public
// maps: Groups (the first aggregate of every group) and, for a statement
// spelled as a list, Aggs (every aggregate; its rows are windows of one
// slab). This boundary is the only place the two spellings differ: a
// statement spelled with Agg reports Aggs == nil.
func finalizeGroups(q *Query, st *aggState, accs *sched.AccTable, res *Result) {
	accs = st.backfill(accs)
	res.Groups = make(map[int64]int64, accs.Len())
	if q.Aggs == nil {
		// One SUM slot: the accumulator is the value.
		accs.Each(func(k int64, acc []int64) { res.Groups[k] = acc[0] })
		return
	}
	n := len(st.specs)
	res.Aggs = make(map[int64][]int64, accs.Len())
	slab := make([]int64, n*accs.Len())
	accs.Each(func(k int64, acc []int64) {
		fin := slab[:n:n]
		slab = slab[n:]
		st.finalize(acc, fin)
		res.Aggs[k], res.Groups[k] = fin, fin[0]
	})
}

// resultRows materializes the finalized groups as rows sorted by packed key
// ascending — the base order every sort algorithm starts from.
func resultRows(q *Query, res *Result) []Row {
	keys := make([]int64, 0, len(res.Groups))
	for k := range res.Groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rows := make([]Row, len(keys))
	for i, k := range keys {
		var vals []int64
		if res.Aggs != nil {
			vals = append([]int64(nil), res.Aggs[k]...)
		} else {
			vals = []int64{res.Groups[k]}
		}
		rows[i] = Row{Key: k, Vals: vals}
	}
	return rows
}

// orderVal extracts the value an OrderKey compares for one row: an
// aggregate, or one payload slot of the packed group key (UnpackGroup's
// slot, read in place).
func orderVal(q *Query, k OrderKey, r Row) int64 {
	if k.Item >= 0 {
		return r.Vals[k.Item]
	}
	slots := 0
	for _, j := range q.Joins {
		if j.Payload != "" {
			slots++
		}
	}
	return r.Key >> ((slots - 1 - k.Group) * groupShift) & (1<<groupShift - 1)
}

// rowCmp is the total order ORDER BY defines: the keys in sequence, then
// the packed group key ascending as the final tie-break.
func (q *Query) rowCmp(a, b Row) int {
	for _, k := range q.OrderBy {
		if c := cmp.Compare(orderVal(q, k, a), orderVal(q, k, b)); c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return cmp.Compare(a.Key, b.Key)
}

// orderRows sorts rows with the comparator that defines the order. It is
// the one place rows are ordered: every placement's ORDER BY phase returns
// its rows (executeSort) and prices its own algorithm from counts.
func orderRows(q *Query, rows []Row) []Row {
	// Always non-nil: a nil Ordered means "no ORDER BY", and an ordered
	// query with zero result rows must still carry an (empty) ordering.
	out := append(make([]Row, 0, len(rows)), rows...)
	slices.SortFunc(out, q.rowCmp)
	return out
}

// truncateRows applies LIMIT.
func truncateRows(q *Query, rows []Row) []Row {
	if q.Limit > 0 && len(rows) > q.Limit {
		return rows[:q.Limit]
	}
	return rows
}
