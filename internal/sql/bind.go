package sql

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"crystal/internal/queries"
	"crystal/internal/ssb"
)

// The binder's schema view. Table identities are the canonical names the
// queries package resolves ("lineorder" for the fact table, dimension names
// for DimTable); the maps below admit short aliases and the SSB-standard
// prefixed column names so queries read naturally in either style.
const factTable = "lineorder"

// builtinTables maps every accepted table spelling to its identity.
var builtinTables = map[string]string{
	"lineorder": factTable, "lo": factTable,
	"date": "date", "d": "date",
	"customer": "customer", "cust": "customer", "c": "customer",
	"supplier": "supplier", "supp": "supplier", "s": "supplier",
	"part": "part", "p": "part",
}

// ssbPrefix maps the SSB column-name prefix of an unqualified reference
// ("lo_revenue", "d_year", "p_brand1") to its table identity.
var ssbPrefix = map[string]string{
	"lo": factTable, "d": "date", "c": "customer", "s": "supplier", "p": "part",
}

// factCols lists the fact columns with their accepted synonyms.
var factCols = map[string]string{
	"orderdate": "orderdate", "custkey": "custkey", "partkey": "partkey",
	"suppkey": "suppkey", "quantity": "quantity", "discount": "discount",
	"extprice": "extprice", "extendedprice": "extprice",
	"revenue": "revenue", "supplycost": "supplycost",
}

// dimCols lists each dimension's attribute columns with synonyms.
var dimCols = map[string]map[string]string{
	"date":     {"year": "year", "yearmonthnum": "yearmonthnum", "weeknuminyear": "weeknuminyear"},
	"customer": {"region": "region", "nation": "nation", "city": "city"},
	"supplier": {"region": "region", "nation": "nation", "city": "city"},
	"part":     {"mfgr": "mfgr", "category": "category", "brand1": "brand1", "brand": "brand1"},
}

// dimKeyNames lists each dimension's key-column spellings ("key" plus the
// SSB natural-key name).
var dimKeyNames = map[string]string{
	"datekey": "date", "custkey": "customer", "suppkey": "supplier", "partkey": "part",
}

// fkDim maps a fact foreign key to the dimension it references.
var fkDim = map[string]string{
	"orderdate": "date", "custkey": "customer", "suppkey": "supplier", "partkey": "part",
}

// dimFK is the inverse of fkDim.
var dimFK = map[string]string{
	"date": "orderdate", "customer": "custkey", "supplier": "suppkey", "part": "partkey",
}

// column is a resolved reference: the table identity plus the canonical
// column name ("key" for a dimension's key column).
type column struct {
	table string
	col   string
}

func (c column) String() string { return c.table + "." + c.col }

// Compile parses and binds one statement, returning a validated
// queries.Query ready to run on any engine. The query's ID is "sql-" plus a
// short hash of its canonical form, so equivalent statements (whitespace,
// comments, filter order) share an identity.
func Compile(stmt string) (queries.Query, error) {
	sel, err := Parse(stmt)
	if err != nil {
		return queries.Query{}, err
	}
	return Bind(sel)
}

// Bind lowers a parsed statement onto the SSB star schema. Semantic checks
// beyond name resolution — column existence per table, well-formed filters,
// group-key capacity — are delegated to queries.Query.Validate, the same
// gate the built-in catalog passes through.
func Bind(sel *Select) (queries.Query, error) {
	b := &binder{scope: map[string]string{}}
	q, err := b.bind(sel)
	if err != nil {
		return queries.Query{}, err
	}
	q.ID = "sql-" + shortHash(q.Canonical())
	if err := q.Validate(); err != nil {
		return queries.Query{}, err
	}
	return q, nil
}

type binder struct {
	scope   map[string]string // alias or table spelling -> table identity
	dims    []string          // dimension identities in textual order
	hasFact bool
	joined  map[string]bool             // dims with a join predicate
	filters map[string][]queries.Filter // dim -> its filters, textual order
}

func (b *binder) bind(sel *Select) (queries.Query, error) {
	b.joined = map[string]bool{}
	b.filters = map[string][]queries.Filter{}
	for _, t := range sel.Tables {
		if err := b.addTable(t); err != nil {
			return queries.Query{}, err
		}
	}
	for _, j := range sel.Joins {
		if err := b.addTable(j.Table); err != nil {
			return queries.Query{}, err
		}
		if err := b.addJoinEq(j.Left, j.Right); err != nil {
			return queries.Query{}, err
		}
	}
	if !b.hasFact {
		return queries.Query{}, fmt.Errorf("sql: FROM must include the fact table lineorder")
	}

	var q queries.Query
	for _, p := range sel.Where {
		switch p.Kind {
		case predTrivial:
			// WHERE 1=1 anchors Describe's conjunct list; no semantics.
		case predJoinEq:
			if err := b.addJoinEq(p.Col, p.RHS); err != nil {
				return queries.Query{}, err
			}
		default:
			c, err := b.resolve(p.Col)
			if err != nil {
				return queries.Query{}, err
			}
			f, err := b.filterFor(c, p)
			if err != nil {
				return queries.Query{}, err
			}
			if c.table == factTable {
				q.FactFilters = append(q.FactFilters, f)
			} else {
				b.filters[c.table] = append(b.filters[c.table], f)
			}
		}
	}
	for _, dim := range b.dims {
		if !b.joined[dim] {
			return queries.Query{}, fmt.Errorf("sql: dimension %s is never joined to lineorder (add %s = %s.key or a JOIN ... ON clause)",
				dim, dimFK[dim], dim)
		}
	}

	// Joins in textual order; GROUP BY assigns payloads below.
	payload := map[string]string{}
	var groupDims []string
	for _, g := range sel.GroupBy {
		c, err := b.resolve(g)
		if err != nil {
			return queries.Query{}, err
		}
		switch {
		case c.table == factTable:
			return queries.Query{}, fmt.Errorf("sql: GROUP BY %s: grouping by fact columns is not supported", c)
		case c.col == "key":
			return queries.Query{}, fmt.Errorf("sql: GROUP BY %s: grouping by a dimension key is not supported", c)
		case payload[c.table] != "":
			return queries.Query{}, fmt.Errorf("sql: GROUP BY lists two %s columns; the packed group key carries one payload per join", c.table)
		}
		payload[c.table] = c.col
		groupDims = append(groupDims, c.table)
	}
	if err := b.checkItems(sel, payload, groupDims); err != nil {
		return queries.Query{}, err
	}

	// Emit joins in textual order, except that payload-carrying joins take
	// the GROUP BY order among their own slots: packed group keys follow
	// join order, so GROUP BY (a, b) and GROUP BY (b, a) pack differently.
	var payloadSlots []int
	for i, dim := range b.dims {
		if payload[dim] != "" {
			payloadSlots = append(payloadSlots, i)
		}
	}
	order := append([]string(nil), b.dims...)
	for i, dim := range groupDims {
		order[payloadSlots[i]] = dim
	}
	for _, dim := range order {
		q.Joins = append(q.Joins, queries.JoinSpec{
			Dim:     dim,
			FactFK:  dimFK[dim],
			Filters: sortFilters(b.filters[dim]),
			Payload: payload[dim],
		})
	}
	q.FactFilters = sortFilters(q.FactFilters)

	if err := b.bindAggs(sel, &q); err != nil {
		return queries.Query{}, err
	}
	if err := b.bindOrder(sel, &q, payload, groupDims); err != nil {
		return queries.Query{}, err
	}
	q.Limit = sel.Limit
	return q, nil
}

// sortFilters puts a conjunct list into canonical order (by column, then
// bounds) and sorts IN sets. Conjuncts commute, so the rows are unchanged;
// what this buys is determinism: every spelling of the same statement
// binds to the same physical filter order, executes with the same memory
// traffic, and lands on the same Canonical cache key. (The hand-built
// catalog keeps its own, selectivity-tuned order — the binder only speaks
// for ad-hoc text.)
func sortFilters(fs []queries.Filter) []queries.Filter {
	for i := range fs {
		if fs[i].In != nil {
			sort.Slice(fs[i].In, func(a, b int) bool { return fs[i].In[a] < fs[i].In[b] })
		}
	}
	sort.SliceStable(fs, func(a, b int) bool { return filterKey(fs[a]) < filterKey(fs[b]) })
	return fs
}

func filterKey(f queries.Filter) string {
	if f.In != nil {
		return fmt.Sprintf("%s:in:%v", f.Col, f.In)
	}
	return fmt.Sprintf("%s:%d:%d", f.Col, f.Lo, f.Hi)
}

// addTable brings a FROM or JOIN table into scope.
func (b *binder) addTable(t TableRef) error {
	id, ok := builtinTables[t.Name]
	if !ok {
		return fmt.Errorf("sql: unknown table %q (schema: lineorder, date, customer, supplier, part)", t.Name)
	}
	if id == factTable {
		if b.hasFact {
			return fmt.Errorf("sql: lineorder listed twice")
		}
		b.hasFact = true
	} else {
		for _, d := range b.dims {
			if d == id {
				return fmt.Errorf("sql: dimension %s listed twice", id)
			}
		}
		b.dims = append(b.dims, id)
	}
	if t.Alias != "" {
		if have, ok := b.scope[t.Alias]; ok && have != id {
			return fmt.Errorf("sql: alias %q is ambiguous (%s vs %s)", t.Alias, have, id)
		}
		b.scope[t.Alias] = id
	}
	return nil
}

// inScope reports whether a table identity was brought in by FROM/JOIN.
func (b *binder) inScope(id string) bool {
	if id == factTable {
		return b.hasFact
	}
	for _, d := range b.dims {
		if d == id {
			return true
		}
	}
	return false
}

// tableOf resolves a qualifier (user alias, table name or builtin alias)
// to an in-scope table identity.
func (b *binder) tableOf(name string) (string, error) {
	if id, ok := b.scope[name]; ok {
		return id, nil
	}
	if id, ok := builtinTables[name]; ok && b.inScope(id) {
		return id, nil
	}
	return "", fmt.Errorf("sql: unknown table or alias %q", name)
}

// resolve binds a column reference to an in-scope table and canonical
// column name.
func (b *binder) resolve(c ColRef) (column, error) {
	if c.Table != "" {
		id, err := b.tableOf(c.Table)
		if err != nil {
			return column{}, err
		}
		col, ok := b.lookupIn(id, c.Col)
		if !ok {
			return column{}, fmt.Errorf("sql: table %s has no column %q", id, c.Col)
		}
		return column{table: id, col: col}, nil
	}
	// SSB-prefixed shorthand: lo_revenue, d_year, p_brand1, ...
	if i := strings.IndexByte(c.Col, '_'); i > 0 {
		if id, ok := ssbPrefix[c.Col[:i]]; ok && b.inScope(id) {
			if col, ok := b.lookupIn(id, c.Col[i+1:]); ok {
				return column{table: id, col: col}, nil
			}
			return column{}, fmt.Errorf("sql: table %s has no column %q", id, c.Col[i+1:])
		}
	}
	// Unqualified: the column must be unambiguous across in-scope tables.
	// The fact table wins outright — its FK names double as the dimensions'
	// natural-key synonyms (suppkey both lineorder FK and supplier key), and
	// a bare FK name always means the fact side.
	if b.hasFact {
		if col, ok := b.lookupIn(factTable, c.Col); ok {
			return column{table: factTable, col: col}, nil
		}
	}
	var found []column
	for _, dim := range b.dims {
		if col, ok := b.lookupIn(dim, c.Col); ok {
			found = append(found, column{table: dim, col: col})
		}
	}
	switch len(found) {
	case 1:
		return found[0], nil
	case 0:
		return column{}, fmt.Errorf("sql: unknown column %q", c.Col)
	default:
		var names []string
		for _, f := range found {
			names = append(names, f.String())
		}
		return column{}, fmt.Errorf("sql: column %q is ambiguous (%s)", c.Col, strings.Join(names, ", "))
	}
}

// lookupIn resolves a column spelling within one table, applying synonyms.
func (b *binder) lookupIn(table, name string) (string, bool) {
	if table == factTable {
		col, ok := factCols[name]
		return col, ok
	}
	if name == "key" || dimKeyNames[name] == table {
		return "key", true
	}
	col, ok := dimCols[table][name]
	return col, ok
}

// addJoinEq records a fact-FK = dimension-key predicate.
func (b *binder) addJoinEq(l, r ColRef) error {
	lc, err := b.resolve(l)
	if err != nil {
		return err
	}
	rc, err := b.resolve(r)
	if err != nil {
		return err
	}
	if lc.table != factTable {
		lc, rc = rc, lc
	}
	if lc.table != factTable || rc.table == factTable {
		return fmt.Errorf("sql: join %s = %s must link a lineorder foreign key to a dimension key", lc, rc)
	}
	dim, isFK := fkDim[lc.col]
	if !isFK {
		return fmt.Errorf("sql: %s is not a foreign key (want orderdate, custkey, suppkey or partkey)", lc)
	}
	if rc.col != "key" {
		return fmt.Errorf("sql: join %s = %s must compare against the dimension key, not %s", lc, rc, rc)
	}
	if dim != rc.table {
		return fmt.Errorf("sql: %s references %s, not %s", lc, dim, rc.table)
	}
	if b.joined[dim] {
		return fmt.Errorf("sql: dimension %s joined twice", dim)
	}
	b.joined[dim] = true
	return nil
}

// checkItems validates the select list: at least one aggregate, and any
// plain columns must mirror the GROUP BY list in order.
func (b *binder) checkItems(sel *Select, payload map[string]string, groupDims []string) error {
	var plain []column
	aggs := 0
	for _, it := range sel.Items {
		if it.Agg != nil {
			aggs++
			continue
		}
		c, err := b.resolve(*it.Col)
		if err != nil {
			return err
		}
		plain = append(plain, c)
	}
	if aggs == 0 {
		return fmt.Errorf("sql: the select list needs at least one aggregate (SUM, COUNT, AVG, MIN or MAX)")
	}
	if len(plain) == 0 {
		return nil // SELECT SUM(...) alone is fine even with GROUP BY
	}
	if len(plain) != len(groupDims) {
		return fmt.Errorf("sql: select list has %d grouped columns but GROUP BY has %d", len(plain), len(groupDims))
	}
	for i, c := range plain {
		if c.table != groupDims[i] || c.col != payload[groupDims[i]] {
			return fmt.Errorf("sql: select column %s does not match GROUP BY column %s.%s", c, groupDims[i], payload[groupDims[i]])
		}
	}
	return nil
}

// bindAggs lowers the select list's aggregates. A single plain SUM
// normalizes to the Agg spelling (Aggs stays nil), so such statements share
// canonical keys — and with them plan and result caches — with the catalog
// queries; anything else becomes the AggSpec list. The engines execute both
// spellings alike: Agg stands for a list of one SUM.
func (b *binder) bindAggs(sel *Select, q *queries.Query) error {
	var specs []queries.AggSpec
	for _, it := range sel.Items {
		if it.Agg == nil {
			continue
		}
		s, err := b.bindAggExpr(it.Agg)
		if err != nil {
			return err
		}
		specs = append(specs, s)
	}
	if len(specs) == 1 && specs[0].Func == queries.FuncSum {
		q.Agg = specs[0].Expr
		return nil
	}
	q.Aggs = specs
	return nil
}

// bindAggExpr lowers one aggregate expression onto an AggSpec: COUNT counts
// surviving fact rows whatever its argument, the other functions apply to
// the three engine aggregate expressions.
func (b *binder) bindAggExpr(agg *AggExpr) (queries.AggSpec, error) {
	fn := agg.Func
	if fn == "" {
		fn = "SUM"
	}
	if fn == "COUNT" {
		if !agg.Star {
			c, err := b.resolve(agg.Left)
			if err != nil {
				return queries.AggSpec{}, err
			}
			if c.table != factTable {
				return queries.AggSpec{}, fmt.Errorf("sql: COUNT over %s: aggregates read fact columns only", c)
			}
		}
		return queries.AggSpec{Func: queries.FuncCount}, nil
	}
	left, err := b.resolve(agg.Left)
	if err != nil {
		return queries.AggSpec{}, err
	}
	if left.table != factTable {
		return queries.AggSpec{}, fmt.Errorf("sql: %s over %s: aggregates read fact columns only", fn, left)
	}
	var right column
	if agg.Op != 0 {
		if right, err = b.resolve(agg.Right); err != nil {
			return queries.AggSpec{}, err
		}
		if right.table != factTable {
			return queries.AggSpec{}, fmt.Errorf("sql: %s over %s: aggregates read fact columns only", fn, right)
		}
	}
	var kind queries.AggKind
	switch {
	case agg.Op == 0 && left.col == "revenue":
		kind = queries.AggSumRevenue
	case agg.Op == '*' && ((left.col == "extprice" && right.col == "discount") || (left.col == "discount" && right.col == "extprice")):
		kind = queries.AggSumExtDisc
	case agg.Op == '-' && left.col == "revenue" && right.col == "supplycost":
		kind = queries.AggSumProfit
	default:
		return queries.AggSpec{}, fmt.Errorf("sql: unsupported aggregate %s; the engines implement %s over revenue, extprice * discount and revenue - supplycost", agg, fn)
	}
	var f queries.AggFunc
	switch fn {
	case "AVG":
		f = queries.FuncAvg
	case "MIN":
		f = queries.FuncMin
	case "MAX":
		f = queries.FuncMax
	default:
		f = queries.FuncSum
	}
	return queries.AggSpec{Func: f, Expr: kind}, nil
}

// bindOrder lowers the ORDER BY keys: select-list ordinals map to their
// aggregate index (or, for plain items, their group slot — checkItems
// pinned plain items to GROUP BY order, so the j-th plain item is slot j),
// and column references must name a grouped column.
func (b *binder) bindOrder(sel *Select, q *queries.Query, payload map[string]string, groupDims []string) error {
	if len(sel.OrderBy) == 0 {
		return nil
	}
	type pos struct{ agg, group int }
	positions := make([]pos, len(sel.Items))
	aggIdx, plainIdx := 0, 0
	for i, it := range sel.Items {
		if it.Agg != nil {
			positions[i] = pos{agg: aggIdx, group: -1}
			aggIdx++
		} else {
			positions[i] = pos{agg: -1, group: plainIdx}
			plainIdx++
		}
	}
	for _, o := range sel.OrderBy {
		k := queries.OrderKey{Desc: o.Desc}
		if o.Col != nil {
			c, err := b.resolve(*o.Col)
			if err != nil {
				return err
			}
			slot := -1
			for i, dim := range groupDims {
				if dim == c.table && payload[dim] == c.col {
					slot = i
				}
			}
			if slot < 0 {
				return fmt.Errorf("sql: ORDER BY %s: order keys must be select-list ordinals or grouped columns", c)
			}
			k.Item, k.Group = -1, slot
		} else {
			if o.Ordinal > len(sel.Items) {
				return fmt.Errorf("sql: ORDER BY %d: the select list has %d items", o.Ordinal, len(sel.Items))
			}
			p := positions[o.Ordinal-1]
			if p.agg >= 0 {
				k.Item = p.agg
			} else {
				k.Item, k.Group = -1, p.group
			}
		}
		q.OrderBy = append(q.OrderBy, k)
	}
	return nil
}

// filterFor lowers one predicate on a resolved column into a Filter.
func (b *binder) filterFor(c column, p Pred) (queries.Filter, error) {
	if c.col == "key" {
		return queries.Filter{}, fmt.Errorf("sql: filtering on %s: predicates on dimension keys are not supported", c)
	}
	enc := func(l Literal) (int32, error) { return encodeLiteral(c, l) }
	switch p.Kind {
	case predBetween:
		lo, err := enc(p.Lo)
		if err != nil {
			return queries.Filter{}, err
		}
		hi, err := enc(p.Hi)
		if err != nil {
			return queries.Filter{}, err
		}
		return queries.Filter{Col: c.col, Lo: lo, Hi: hi}, nil
	case predIn:
		in := make([]int32, len(p.List))
		for i, l := range p.List {
			v, err := enc(l)
			if err != nil {
				return queries.Filter{}, err
			}
			in[i] = v
		}
		return queries.Filter{Col: c.col, In: in}, nil
	default: // predCompare
		v, err := enc(p.Lit)
		if err != nil {
			return queries.Filter{}, err
		}
		f := queries.Filter{Col: c.col, Lo: math.MinInt32, Hi: math.MaxInt32}
		switch p.Op {
		case "=":
			f.Lo, f.Hi = v, v
		case "<=":
			f.Hi = v
		case ">=":
			f.Lo = v
		case "<":
			if v == math.MinInt32 {
				return queries.Filter{}, fmt.Errorf("sql: %s < %d matches nothing", c, v)
			}
			f.Hi = v - 1
		case ">":
			if v == math.MaxInt32 {
				return queries.Filter{}, fmt.Errorf("sql: %s > %d matches nothing", c, v)
			}
			f.Lo = v + 1
		}
		return f, nil
	}
}

// encodeLiteral turns a literal into the column's int32 domain, decoding
// SSB dictionary strings ('AMERICA', 'MFGR#12', 'UNITED KI1') for the
// dictionary-encoded attributes.
func encodeLiteral(c column, l Literal) (int32, error) {
	if !l.IsStr {
		if l.Num < math.MinInt32 || l.Num > math.MaxInt32 {
			return 0, fmt.Errorf("sql: literal %d for %s outside the 32-bit column domain", l.Num, c)
		}
		return int32(l.Num), nil
	}
	var code int32 = -1
	switch c.col {
	case "region":
		code = indexOf(ssb.Regions, l.Str)
	case "nation":
		code = indexOf(ssb.Nations, l.Str)
	case "city":
		code = ssb.CityCode(l.Str)
	case "mfgr":
		var m int32
		if _, err := fmt.Sscanf(l.Str, "MFGR#%1d", &m); err == nil && m >= 1 && m <= ssb.NumMfgr {
			code = m - 1
		}
	case "category":
		if v := ssb.CategoryCode(l.Str); v >= 0 && v < ssb.NumCategories {
			code = v
		}
	case "brand1":
		if v := ssb.BrandCode(l.Str); v >= 0 && v < ssb.NumBrands {
			code = v
		}
	default:
		return 0, fmt.Errorf("sql: column %s is numeric; string literal '%s' cannot apply", c, l.Str)
	}
	if code < 0 {
		return 0, fmt.Errorf("sql: '%s' is not a valid %s literal", l.Str, c.col)
	}
	return code, nil
}

func indexOf(dict []string, s string) int32 {
	for i, v := range dict {
		if v == s {
			return int32(i)
		}
	}
	return -1
}

func shortHash(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%08x", h.Sum64()&0xffffffff)
}
