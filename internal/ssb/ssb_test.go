package ssb

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

func TestDictionaries(t *testing.T) {
	if len(Regions) != 5 || len(Nations) != 25 {
		t.Fatalf("dictionary sizes: %d regions, %d nations", len(Regions), len(Nations))
	}
	// Nation->region grouping: the encoding invariant region = nation/5.
	if NationRegion(9) != America { // UNITED STATES is nation 9
		t.Errorf("UNITED STATES region = %d", NationRegion(9))
	}
	if Nations[9] != "UNITED STATES" {
		t.Errorf("nation 9 = %q", Nations[9])
	}
}

func TestCityNamesAndCodes(t *testing.T) {
	// q3.3 filters on 'UNITED KI1' and 'UNITED KI5'.
	code := CityCode("UNITED KI1")
	if code < 0 {
		t.Fatal("UNITED KI1 not resolvable")
	}
	if got := CityName(code); got != "UNITED KI1" {
		t.Errorf("round trip = %q", got)
	}
	if CityNation(code) != 19 { // UNITED KINGDOM
		t.Errorf("UNITED KI1 nation = %d", CityNation(code))
	}
	if CityCode("NOPE") != -1 || CityCode("ZZZZZZZZZ9") != -1 {
		t.Error("bad city names should return -1")
	}
	// UNITED ST (states) and UNITED KI (kingdom) must not collide.
	if CityCode("UNITED ST3") == CityCode("UNITED KI3") {
		t.Error("city prefixes collide")
	}
}

func TestPartCodecs(t *testing.T) {
	if got := CategoryCode("MFGR#12"); got != 1 {
		t.Errorf("MFGR#12 = %d, want 1", got)
	}
	if got := CategoryName(1); got != "MFGR#12" {
		t.Errorf("category 1 = %q", got)
	}
	if got := BrandCode("MFGR#1221"); got != 1*BrandsPerCat+20 {
		t.Errorf("MFGR#1221 = %d", got)
	}
	if got := BrandName(BrandCode("MFGR#2239")); got != "MFGR#2239" {
		t.Errorf("brand round trip = %q", got)
	}
	if CategoryCode("bogus") != -1 || BrandCode("bogus") != -1 {
		t.Error("bad literals should return -1")
	}
}

func TestPartRowsFormula(t *testing.T) {
	// SSB: 200,000 * floor(1 + log2(SF)); at SF 20 this is 1M (Section 5.3).
	cases := map[int]int{1: 200_000, 2: 400_000, 4: 600_000, 20: 1_000_000, 32: 1_200_000}
	for sf, want := range cases {
		if got := PartRows(sf); got != want {
			t.Errorf("PartRows(%d) = %d, want %d", sf, got, want)
		}
	}
}

func TestGenDate(t *testing.T) {
	d := GenDate()
	if d.Rows() != DateDays {
		t.Fatalf("date rows = %d, want %d", d.Rows(), DateDays)
	}
	if d.Key[0] != 19920101 || d.Key[d.Rows()-1] != 19981231 {
		t.Errorf("date range = %d..%d", d.Key[0], d.Key[d.Rows()-1])
	}
	years := d.Col("year")
	if years[0] != 1992 || years[len(years)-1] != 1998 {
		t.Error("year attribute wrong")
	}
	weeks := d.Col("weeknuminyear")
	for i, w := range weeks {
		if w < 1 || w > 53 {
			t.Fatalf("week %d at row %d out of range", w, i)
		}
	}
	// 1996 is a leap year: 366 days.
	leap := 0
	for i, y := range years {
		if y == 1996 {
			leap++
		}
		_ = i
	}
	if leap != 366 {
		t.Errorf("1996 has %d days", leap)
	}
}

func TestDimColPanicsOnUnknown(t *testing.T) {
	d := GenDate()
	defer func() {
		if recover() == nil {
			t.Error("Col on unknown name should panic")
		}
	}()
	d.Col("nope")
}

func TestGenerateCardinalitiesAndRanges(t *testing.T) {
	ds := Generate(1)
	if ds.Lineorder.Rows() != LineorderPerSF {
		t.Errorf("lineorder rows = %d", ds.Lineorder.Rows())
	}
	if ds.Customer.Rows() != CustomerPerSF || ds.Supplier.Rows() != SupplierPerSF {
		t.Error("dimension cardinalities wrong")
	}
	if ds.Part.Rows() != 200_000 {
		t.Errorf("part rows = %d", ds.Part.Rows())
	}
	l := &ds.Lineorder
	for i := 0; i < l.Rows(); i += 9973 {
		if q := l.Quantity[i]; q < 1 || q > 50 {
			t.Fatalf("quantity %d", q)
		}
		if d := l.Discount[i]; d < 0 || d > 10 {
			t.Fatalf("discount %d", d)
		}
		if want := l.ExtPrice[i] * (100 - l.Discount[i]) / 100; l.Revenue[i] != want {
			t.Fatalf("revenue %d != %d", l.Revenue[i], want)
		}
		if l.CustKey[i] < 1 || l.CustKey[i] > int32(ds.Customer.Rows()) {
			t.Fatal("custkey out of range")
		}
		if l.PartKey[i] < 1 || l.PartKey[i] > int32(ds.Part.Rows()) {
			t.Fatal("partkey out of range")
		}
		if l.SuppKey[i] < 1 || l.SuppKey[i] > int32(ds.Supplier.Rows()) {
			t.Fatal("suppkey out of range")
		}
	}
	if ds.Bytes() <= 0 {
		t.Error("dataset bytes")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateRows(10_000)
	b := GenerateRows(10_000)
	for i := range a.Lineorder.OrderDate {
		if a.Lineorder.OrderDate[i] != b.Lineorder.OrderDate[i] ||
			a.Lineorder.Revenue[i] != b.Lineorder.Revenue[i] {
			t.Fatal("generator not deterministic")
		}
	}
}

// TestGenerateRowsIsPrefix pins the contract GenerateRows rests on now that it
// generates only the rows asked for: every fact column of GenerateRows(n) is
// the first n rows of the SF-1 table, compared by hash so the full table is
// dropped before the reduced ones are built.
func TestGenerateRowsIsPrefix(t *testing.T) {
	hashes := func(l *Lineorder, n int) map[string]uint64 {
		out := map[string]uint64{}
		for _, name := range FactColumns() {
			h := fnv.New64a()
			var b [4]byte
			for _, v := range l.Col(name)[:n] {
				binary.LittleEndian.PutUint32(b[:], uint32(v))
				h.Write(b[:])
			}
			out[name] = h.Sum64()
		}
		return out
	}
	sizes := []int{1, 3, 2048, 200_000}
	want := make([]map[string]uint64, len(sizes))
	full := Generate(1)
	for i, n := range sizes {
		want[i] = hashes(&full.Lineorder, n)
	}
	full = nil
	for i, n := range sizes {
		ds := GenerateRows(n)
		if ds.Lineorder.Rows() != n {
			t.Fatalf("GenerateRows(%d) has %d fact rows", n, ds.Lineorder.Rows())
		}
		if c := cap(ds.Lineorder.OrderDate); c != n {
			t.Errorf("GenerateRows(%d) pins %d rows of backing storage", n, c)
		}
		for name, h := range hashes(&ds.Lineorder, n) {
			if h != want[i][name] {
				t.Errorf("GenerateRows(%d): column %s differs from the first %d rows of Generate(1)", n, name, n)
			}
		}
	}
}

func TestGenerateRowsCapsAndClamps(t *testing.T) {
	ds := GenerateRows(1234)
	if ds.Lineorder.Rows() != 1234 {
		t.Errorf("rows = %d", ds.Lineorder.Rows())
	}
	if GenerateRows(-5).Lineorder.Rows() != 1 {
		t.Error("negative row count should clamp to 1")
	}
	if Generate(0).SF != 1 {
		t.Error("SF 0 should clamp to 1")
	}
}

func TestAttributeDistributions(t *testing.T) {
	ds := GenerateRows(1)
	// Roughly 1/5 of suppliers in each region (uniform cities).
	counts := make(map[int32]int)
	for _, r := range ds.Supplier.Col("region") {
		counts[r]++
	}
	n := ds.Supplier.Rows()
	for r := int32(0); r < 5; r++ {
		frac := float64(counts[r]) / float64(n)
		if frac < 0.15 || frac > 0.25 {
			t.Errorf("region %d fraction = %.3f, want ~0.2", r, frac)
		}
	}
	// Consistency: region = nation/5 = city/50 for every supplier.
	nations := ds.Supplier.Col("nation")
	cities := ds.Supplier.Col("city")
	regions := ds.Supplier.Col("region")
	for i := range nations {
		if CityNation(cities[i]) != nations[i] || NationRegion(nations[i]) != regions[i] {
			t.Fatalf("hierarchy inconsistent at %d", i)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := GenerateRows(5000)
	path := filepath.Join(t.TempDir(), "ssb.bin")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SF != ds.SF || got.Lineorder.Rows() != ds.Lineorder.Rows() {
		t.Fatal("header mismatch")
	}
	for i := range ds.Lineorder.Revenue {
		if got.Lineorder.Revenue[i] != ds.Lineorder.Revenue[i] {
			t.Fatal("fact column mismatch")
		}
	}
	for _, pair := range [][2]*Dim{{&got.Date, &ds.Date}, {&got.Customer, &ds.Customer}, {&got.Supplier, &ds.Supplier}, {&got.Part, &ds.Part}} {
		g, w := pair[0], pair[1]
		if g.Name != w.Name || g.Rows() != w.Rows() || len(g.Attrs) != len(w.Attrs) {
			t.Fatalf("dim %s shape mismatch", w.Name)
		}
		for name, col := range w.Attrs {
			gc := g.Col(name)
			for i := range col {
				if gc[i] != col[i] {
					t.Fatalf("dim %s col %s mismatch", w.Name, name)
				}
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.bin")
	if err := writeFile(path, []byte("not a dataset")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
