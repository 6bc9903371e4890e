package ssb

import (
	"fmt"
	"slices"
)

// Lineorder is the fact table, stored columnar with 4-byte entries
// (Section 5.2: "we store the data in columnar format with each column
// represented as an array of 4-byte values").
type Lineorder struct {
	OrderDate  []int32 // yyyymmdd, FK into Date
	CustKey    []int32
	PartKey    []int32
	SuppKey    []int32
	Quantity   []int32 // 1..50
	Discount   []int32 // 0..10 (percent)
	ExtPrice   []int32 // extended price
	Revenue    []int32 // extprice * (100-discount) / 100
	SupplyCost []int32
}

// Rows returns the fact-table cardinality.
func (l *Lineorder) Rows() int { return len(l.OrderDate) }

// Dim is a dimension table: a dense surrogate/natural key column plus
// dictionary-encoded attribute columns.
type Dim struct {
	Name  string
	Key   []int32
	Attrs map[string][]int32
	// KeyLo and KeyHi are the least and greatest key (both 0 when the table
	// is empty), recorded once where the table is generated or read, so that
	// every join build can lay its hash table out for the key domain without
	// scanning Key again.
	KeyLo, KeyHi int32
}

// Rows returns the dimension cardinality.
func (d *Dim) Rows() int { return len(d.Key) }

// recordKeyRange sets KeyLo and KeyHi from Key.
func (d *Dim) recordKeyRange() {
	d.KeyLo, d.KeyHi = 0, 0
	if len(d.Key) > 0 {
		d.KeyLo, d.KeyHi = slices.Min(d.Key), slices.Max(d.Key)
	}
}

// Col returns the named attribute column, panicking on unknown names so
// query-plan typos fail loudly.
func (d *Dim) Col(name string) []int32 {
	c, ok := d.Attrs[name]
	if !ok {
		panic(fmt.Sprintf("ssb: dimension %s has no column %q", d.Name, name))
	}
	return c
}

// Dataset is a fully generated SSB instance.
type Dataset struct {
	SF        int
	Lineorder Lineorder
	Date      Dim
	Customer  Dim
	Supplier  Dim
	Part      Dim

	// zones caches the fact table's zone maps (see factZones); nil on a
	// zero-value Dataset, which Partition then serves without a cache.
	zones *factZones
}

// Bytes returns the total dataset footprint (all columns, 4 bytes each).
func (ds *Dataset) Bytes() int64 {
	n := int64(ds.Lineorder.Rows()) * 9 * 4
	for _, d := range []*Dim{&ds.Date, &ds.Customer, &ds.Supplier, &ds.Part} {
		n += int64(d.Rows()) * int64(1+len(d.Attrs)) * 4
	}
	return n
}

// rng is a deterministic xorshift64* generator so datasets are reproducible
// across runs and platforms.
type rng uint64

func newRNG(seed uint64) *rng {
	r := rng(seed*2685821657736338717 + 1)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 2685821657736338717
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int32 { return int32(r.next() % uint64(n)) }

var daysInMonth = [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// GenDate builds the 7-year date dimension with the attributes the SSB
// queries need: year, yearmonthnum, weeknuminyear.
func GenDate() Dim {
	d := Dim{Name: "date", Attrs: map[string][]int32{
		"year": nil, "yearmonthnum": nil, "weeknuminyear": nil,
	}}
	for year := 1992; year <= 1998; year++ {
		dayOfYear := 0
		for m := 1; m <= 12; m++ {
			dim := daysInMonth[m-1]
			if m == 2 && isLeap(year) {
				dim++
			}
			for day := 1; day <= dim; day++ {
				dayOfYear++
				d.Key = append(d.Key, int32(year*10000+m*100+day))
				d.Attrs["year"] = append(d.Attrs["year"], int32(year))
				d.Attrs["yearmonthnum"] = append(d.Attrs["yearmonthnum"], int32(year*100+m))
				d.Attrs["weeknuminyear"] = append(d.Attrs["weeknuminyear"], int32((dayOfYear-1)/7+1))
			}
		}
	}
	d.recordKeyRange()
	return d
}

// GenCustomer builds the customer dimension (30,000 x SF rows).
func GenCustomer(sf int) Dim {
	n := CustomerPerSF * sf
	r := newRNG(0xC0FFEE)
	d := Dim{Name: "customer", Key: make([]int32, n), Attrs: map[string][]int32{
		"region": make([]int32, n), "nation": make([]int32, n), "city": make([]int32, n),
	}}
	for i := 0; i < n; i++ {
		d.Key[i] = int32(i + 1)
		city := r.intn(len(Nations) * CitiesPerNation)
		d.Attrs["city"][i] = city
		d.Attrs["nation"][i] = CityNation(city)
		d.Attrs["region"][i] = NationRegion(CityNation(city))
	}
	d.recordKeyRange()
	return d
}

// GenSupplier builds the supplier dimension (2,000 x SF rows).
func GenSupplier(sf int) Dim {
	n := SupplierPerSF * sf
	r := newRNG(0x5EED)
	d := Dim{Name: "supplier", Key: make([]int32, n), Attrs: map[string][]int32{
		"region": make([]int32, n), "nation": make([]int32, n), "city": make([]int32, n),
	}}
	for i := 0; i < n; i++ {
		d.Key[i] = int32(i + 1)
		city := r.intn(len(Nations) * CitiesPerNation)
		d.Attrs["city"][i] = city
		d.Attrs["nation"][i] = CityNation(city)
		d.Attrs["region"][i] = NationRegion(CityNation(city))
	}
	d.recordKeyRange()
	return d
}

// GenPart builds the part dimension (200,000 x floor(1+log2 SF) rows).
func GenPart(sf int) Dim {
	n := PartRows(sf)
	r := newRNG(0x9A127)
	d := Dim{Name: "part", Key: make([]int32, n), Attrs: map[string][]int32{
		"mfgr": make([]int32, n), "category": make([]int32, n), "brand1": make([]int32, n),
	}}
	for i := 0; i < n; i++ {
		d.Key[i] = int32(i + 1)
		brand := r.intn(NumBrands)
		d.Attrs["brand1"][i] = brand
		d.Attrs["category"][i] = brand / BrandsPerCat
		d.Attrs["mfgr"][i] = brand / BrandsPerCat / 5
	}
	d.recordKeyRange()
	return d
}

// GenLineorder builds the first rows rows (all of them when rows exceeds the
// table) of the scale-factor-sf fact table, with uniform foreign keys and the
// SSB value distributions (quantity 1..50, discount 0..10, revenue derived
// from price and discount). Rows are drawn row-major from one sequential
// generator, so a prefix costs only its own rows and is bit-identical to the
// same rows of the full table.
func GenLineorder(sf, rows int, dates *Dim, nCust, nSupp, nPart int) Lineorder {
	n := min(rows, LineorderPerSF*sf)
	r := newRNG(0x10EA7 + uint64(sf))
	l := Lineorder{
		OrderDate:  make([]int32, n),
		CustKey:    make([]int32, n),
		PartKey:    make([]int32, n),
		SuppKey:    make([]int32, n),
		Quantity:   make([]int32, n),
		Discount:   make([]int32, n),
		ExtPrice:   make([]int32, n),
		Revenue:    make([]int32, n),
		SupplyCost: make([]int32, n),
	}
	nd := dates.Rows()
	for i := 0; i < n; i++ {
		l.OrderDate[i] = dates.Key[r.intn(nd)]
		l.CustKey[i] = r.intn(nCust) + 1
		l.PartKey[i] = r.intn(nPart) + 1
		l.SuppKey[i] = r.intn(nSupp) + 1
		l.Quantity[i] = r.intn(50) + 1
		l.Discount[i] = r.intn(11)
		price := r.intn(100_000) + 90_000
		l.ExtPrice[i] = price
		l.Revenue[i] = price * (100 - l.Discount[i]) / 100
		l.SupplyCost[i] = price * 6 / 10
	}
	return l
}

// Generate builds a complete SSB dataset at the given integer scale factor
// (SF >= 1). The paper evaluates SF 20 (~13 GB, 120M fact rows); tests use
// SF 1 or fractions via GenerateRows.
func Generate(sf int) *Dataset {
	if sf < 1 {
		sf = 1
	}
	ds := &Dataset{SF: sf, zones: new(factZones)}
	ds.Date = GenDate()
	ds.Customer = GenCustomer(sf)
	ds.Supplier = GenSupplier(sf)
	ds.Part = GenPart(sf)
	ds.Lineorder = GenLineorder(sf, LineorderPerSF*sf, &ds.Date, ds.Customer.Rows(), ds.Supplier.Rows(), ds.Part.Rows())
	return ds
}

// GenerateRows builds a reduced dataset: the first factRows rows of the SF-1
// fact table (only those are generated) with full SF-1 dimensions — the
// dimension footprints drive the Section 4.3 cache-fit behaviour of the join
// probes, so they deliberately do not shrink with the fact table. factRows is
// capped below at 1 and above at the SF-1 cardinality.
func GenerateRows(factRows int) *Dataset {
	if factRows < 1 {
		factRows = 1
	}
	ds := &Dataset{SF: 1, zones: new(factZones)}
	ds.Date = GenDate()
	ds.Customer = GenCustomer(1)
	ds.Supplier = GenSupplier(1)
	ds.Part = GenPart(1)
	ds.Lineorder = GenLineorder(1, factRows, &ds.Date, ds.Customer.Rows(), ds.Supplier.Rows(), ds.Part.Rows())
	return ds
}

// SliceFact returns a shallow view of the dataset whose fact table is rows
// [lo, hi); dimensions are shared. Used by the multi-GPU engine to shard
// the fact table across devices.
func (ds *Dataset) SliceFact(lo, hi int) *Dataset {
	l := &ds.Lineorder
	out := *ds
	out.zones = new(factZones) // a new extent: the parent's zones do not describe it
	out.Lineorder = Lineorder{
		OrderDate:  l.OrderDate[lo:hi],
		CustKey:    l.CustKey[lo:hi],
		PartKey:    l.PartKey[lo:hi],
		SuppKey:    l.SuppKey[lo:hi],
		Quantity:   l.Quantity[lo:hi],
		Discount:   l.Discount[lo:hi],
		ExtPrice:   l.ExtPrice[lo:hi],
		Revenue:    l.Revenue[lo:hi],
		SupplyCost: l.SupplyCost[lo:hi],
	}
	return &out
}
