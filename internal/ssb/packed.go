package ssb

import (
	"fmt"

	"crystal/internal/pack"
)

// PackedFact is the bit-packed encoding of a dataset's fact table: every
// fact column frame-of-reference packed in frames of MorselAlign rows
// (Section 5.5 of the paper — the non-byte-addressable packing scheme the
// GPU's compute-to-bandwidth ratio makes attractive). Frames align with
// morsel boundaries, so zone maps, Partition(n) and tile-aligned chunking
// all apply unchanged to the packed layout; the engines decode values
// through it at scan time, which is what guarantees packed runs are
// row-identical to plain runs.
//
// A PackedFact is immutable after Pack and safe for concurrent use. It is
// built for one fact-table layout: re-pack after ClusterBy (Pack will
// refuse a mismatched row count at run time via the engines' checks, not
// here).
type PackedFact struct {
	rows int
	cols map[string]*pack.Frames
}

// Pack builds the packed encoding of the dataset's fact columns, one
// pack.Frames of MorselAlign-row frames per column. It is one full pass
// over the fact table; serving layers build it once per dataset generation
// and share it across plans.
func (ds *Dataset) Pack() *PackedFact {
	p := &PackedFact{
		rows: ds.Lineorder.Rows(),
		cols: make(map[string]*pack.Frames, len(FactColumns())),
	}
	for _, name := range FactColumns() {
		p.cols[name] = pack.NewFrames(ds.Lineorder.Col(name), MorselAlign)
	}
	return p
}

// Rows returns the fact-table cardinality the encoding was built for.
func (p *PackedFact) Rows() int { return p.rows }

// FrameRows returns the frame size of every packed column (MorselAlign).
// Engines whose traffic accounting assumes tiles cover whole frames guard
// on it rather than trusting the constant.
func (p *PackedFact) FrameRows() int { return MorselAlign }

// Col returns the named packed fact column, panicking on unknown names to
// mirror Lineorder.Col.
func (p *PackedFact) Col(name string) *pack.Frames {
	c, ok := p.cols[name]
	if !ok {
		panic(fmt.Sprintf("ssb: unknown fact column %q", name))
	}
	return c
}

// Bytes returns the total packed footprint of the fact table.
func (p *PackedFact) Bytes() int64 {
	var n int64
	for _, c := range p.cols {
		n += c.Bytes()
	}
	return n
}

// PlainBytes returns the plain 4-byte footprint of the fact table.
func (p *PackedFact) PlainBytes() int64 { return int64(p.rows) * int64(len(p.cols)) * 4 }

// Ratio returns the fact-table compression ratio (plain/packed).
func (p *PackedFact) Ratio() float64 {
	b := p.Bytes()
	if b == 0 {
		b = 8
	}
	return float64(p.PlainBytes()) / float64(b)
}

// MorselColumnBytes returns the storage footprint of one fact column over
// the morsel's rows: plain 4-byte values when pf is nil, the packed
// frames' bytes otherwise (morsels cover whole frames, so the ranges are
// exact).
func MorselColumnBytes(pf *PackedFact, m Morsel, col string) int64 {
	if pf != nil {
		return pf.Col(col).BytesRange(m.Lo, m.Hi)
	}
	return int64(m.Rows()) * 4
}

// MorselStorageBytes returns the morsel's storage footprint across every
// fact column in the encoding the run scans. It is the byte function fleet
// shard placement uses (queries.Plan.ScheduleFleet): it decides which
// morsels fit a device and which spill.
func MorselStorageBytes(pf *PackedFact, m Morsel) int64 {
	var b int64
	for _, col := range FactColumns() {
		b += MorselColumnBytes(pf, m, col)
	}
	return b
}
