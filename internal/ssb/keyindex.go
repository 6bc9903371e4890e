package ssb

import "fmt"

// KeyIndex maps a dimension key to its row. It is the host's join index:
// with the paper's perfect hashing a join table is an array over the key
// domain and a probe is an index (Section 5.3), so the index is built once
// per generation of a dimension and every statement's join probes it.
//
// Keys that are their rows' positions plus a constant (customer, supplier,
// part: 1..N) need no storage; keys dense enough for a table over their
// range (date's yyyymmdd) get one; any other key set falls back to a map.
type KeyIndex struct {
	lo int32
	// span is the number of keys from lo the dense forms cover: key lo+u is
	// row u when rows is nil, else row rows[u] (-1 for a key not present).
	span uint32
	rows []int32
	// other holds the key -> row pairs of a key set too sparse for a table.
	other map[int32]int32
	// key is the column the index was built from, so that a Dim whose Key
	// was replaced is not answered from a stale index.
	key []int32
}

// denseSpan is the widest key range, per row, that newKeyIndex still lays
// out as a table: the 61 130-key yyyymmdd range over 2 557 dates is 24.
const denseSpan = 32

// newKeyIndex indexes keys, refusing a key that repeats: a dimension key is
// the table's primary key, so a probe names one row.
func newKeyIndex(keys []int32) (*KeyIndex, error) {
	x := &KeyIndex{key: keys}
	if len(keys) == 0 {
		return x, nil
	}
	lo, hi := keys[0], keys[0]
	identity := true
	for i, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
		identity = identity && k == keys[0]+int32(i)
	}
	span := int64(hi) - int64(lo) + 1
	switch {
	case identity:
		x.lo, x.span = keys[0], uint32(len(keys))
	case span <= denseSpan*int64(len(keys)):
		x.lo, x.span, x.rows = lo, uint32(span), make([]int32, span)
		for i := range x.rows {
			x.rows[i] = -1
		}
		for i, k := range keys {
			if r := &x.rows[uint32(k-lo)]; *r < 0 {
				*r = int32(i)
			} else {
				return nil, fmt.Errorf("key %d repeats at rows %d and %d", k, *r, i)
			}
		}
	default:
		x.other = make(map[int32]int32, len(keys))
		for i, k := range keys {
			if r, ok := x.other[k]; ok {
				return nil, fmt.Errorf("key %d repeats at rows %d and %d", k, r, i)
			}
			x.other[k] = int32(i)
		}
	}
	return x, nil
}

// Row returns the row holding key, or -1 when no row does.
func (x *KeyIndex) Row(key int32) int {
	if u := uint32(key - x.lo); u < x.span {
		if x.rows == nil {
			return int(u)
		}
		return int(x.rows[u])
	}
	if x.other != nil {
		return x.sparseRow(key)
	}
	return -1
}

// Identity reports whether key lo+u is row u for every u < span and no
// other key has a row (customer, supplier and part keys): a probe of such
// an index is a subtraction and one compare, which a caller may inline
// into a loop that takes no branch on the keys.
func (x *KeyIndex) Identity() (lo int32, span uint32, ok bool) {
	return x.lo, x.span, x.rows == nil && x.other == nil
}

// sparseRow is Row for a key set kept in a map; it stays out of Row so that
// the dense forms' probe inlines.
func (x *KeyIndex) sparseRow(key int32) int {
	if r, ok := x.other[key]; ok {
		return int(r)
	}
	return -1
}

// Index returns the dimension's key -> row index: the one recorded where
// the table was generated or read, or, for a Dim assembled elsewhere (or
// whose Key was replaced since), one built now — an error when a key
// repeats.
func (d *Dim) Index() (*KeyIndex, error) {
	if x := d.index; x != nil && len(x.key) == len(d.Key) && (len(d.Key) == 0 || &x.key[0] == &d.Key[0]) {
		return x, nil
	}
	x, err := newKeyIndex(d.Key)
	if err != nil {
		return nil, fmt.Errorf("ssb: dimension %s: %w", d.Name, err)
	}
	return x, nil
}

// recordIndex builds and keeps the dimension's key index.
func (d *Dim) recordIndex() error {
	d.index = nil
	x, err := d.Index()
	d.index = x
	return err
}
