package ssb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// Binary columnar format: a small header ("SSB1", SF), then each table as a
// sequence of named int32 columns. Used by cmd/datagen to persist datasets.

const magic = "SSB1"

// Save writes the dataset to path in the columnar binary format.
func (ds *Dataset) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("ssb: save: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := ds.write(w); err != nil {
		f.Close()
		return fmt.Errorf("ssb: save: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("ssb: save: %w", err)
	}
	return f.Close()
}

// Load reads a dataset previously written by Save. Column lengths are
// validated against the file size, so a corrupt or truncated header cannot
// trigger an enormous allocation.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ssb: load: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ssb: load: %w", err)
	}
	ds, err := Read(bufio.NewReaderSize(f, 1<<20), st.Size())
	if err != nil {
		return nil, fmt.Errorf("ssb: load %s: %w", path, err)
	}
	return ds, nil
}

func writeCol(w io.Writer, name string, col []int32) error {
	if err := writeString(w, name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(len(col))); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, col)
}

func readCol(r io.Reader, maxBytes int64) (string, []int32, error) {
	name, err := readString(r)
	if err != nil {
		return "", nil, err
	}
	var n int64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", nil, err
	}
	if n < 0 || n*4 > maxBytes {
		return "", nil, fmt.Errorf("column %q length %d exceeds file size", name, n)
	}
	col := make([]int32, n)
	if err := binary.Read(r, binary.LittleEndian, col); err != nil {
		return "", nil, err
	}
	return name, col, nil
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, int32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n int32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n < 0 || n > 1<<16 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func (ds *Dataset) write(w io.Writer) error {
	if _, err := w.Write([]byte(magic)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int32(ds.SF)); err != nil {
		return err
	}
	l := &ds.Lineorder
	factCols := []struct {
		name string
		col  []int32
	}{
		{"orderdate", l.OrderDate}, {"custkey", l.CustKey}, {"partkey", l.PartKey},
		{"suppkey", l.SuppKey}, {"quantity", l.Quantity}, {"discount", l.Discount},
		{"extprice", l.ExtPrice}, {"revenue", l.Revenue}, {"supplycost", l.SupplyCost},
	}
	if err := binary.Write(w, binary.LittleEndian, int32(len(factCols))); err != nil {
		return err
	}
	for _, fc := range factCols {
		if err := writeCol(w, fc.name, fc.col); err != nil {
			return err
		}
	}
	for _, d := range []*Dim{&ds.Date, &ds.Customer, &ds.Supplier, &ds.Part} {
		if err := writeString(w, d.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, int32(1+len(d.Attrs))); err != nil {
			return err
		}
		if err := writeCol(w, "key", d.Key); err != nil {
			return err
		}
		names := make([]string, 0, len(d.Attrs))
		for name := range d.Attrs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := writeCol(w, name, d.Attrs[name]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Read decodes a dataset from r; maxBytes bounds any single column
// allocation (pass the file or buffer size).
func Read(r io.Reader, maxBytes int64) (*Dataset, error) {
	hdr := make([]byte, 4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if string(hdr) != magic {
		return nil, fmt.Errorf("bad magic %q", hdr)
	}
	var sf int32
	if err := binary.Read(r, binary.LittleEndian, &sf); err != nil {
		return nil, err
	}
	ds := &Dataset{SF: int(sf), zones: new(factZones)}
	var nFact int32
	if err := binary.Read(r, binary.LittleEndian, &nFact); err != nil {
		return nil, err
	}
	fact := map[string][]int32{}
	for i := int32(0); i < nFact; i++ {
		name, col, err := readCol(r, maxBytes)
		if err != nil {
			return nil, err
		}
		fact[name] = col
	}
	ds.Lineorder = Lineorder{
		OrderDate: fact["orderdate"], CustKey: fact["custkey"], PartKey: fact["partkey"],
		SuppKey: fact["suppkey"], Quantity: fact["quantity"], Discount: fact["discount"],
		ExtPrice: fact["extprice"], Revenue: fact["revenue"], SupplyCost: fact["supplycost"],
	}
	n := ds.Lineorder.Rows()
	for name, col := range fact {
		if len(col) != n {
			return nil, fmt.Errorf("fact column %q has %d rows, want %d", name, len(col), n)
		}
	}
	for _, want := range []string{"orderdate", "custkey", "partkey", "suppkey", "quantity", "discount", "extprice", "revenue", "supplycost"} {
		if _, ok := fact[want]; !ok {
			return nil, fmt.Errorf("missing fact column %q", want)
		}
	}
	for _, target := range []*Dim{&ds.Date, &ds.Customer, &ds.Supplier, &ds.Part} {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		var nCols int32
		if err := binary.Read(r, binary.LittleEndian, &nCols); err != nil {
			return nil, err
		}
		d := Dim{Name: name, Attrs: map[string][]int32{}}
		for c := int32(0); c < nCols; c++ {
			cname, col, err := readCol(r, maxBytes)
			if err != nil {
				return nil, err
			}
			if cname == "key" {
				d.Key = col
			} else {
				d.Attrs[cname] = col
			}
		}
		if d.Key == nil {
			return nil, fmt.Errorf("dimension %q has no key column", name)
		}
		for cname, col := range d.Attrs {
			if len(col) != len(d.Key) {
				return nil, fmt.Errorf("dimension %q column %q has %d rows, want %d", name, cname, len(col), len(d.Key))
			}
		}
		d.recordKeyRange()
		*target = d
	}
	return ds, nil
}
