// SSB q2.1 example: run the Section 5.3 case-study query end-to-end on
// every engine, verify they agree row-for-row, decode the dictionary-coded
// group keys back to SQL-level values, and compare against the analytic
// model.
//
//	go run ./examples/ssb_q21
package main

import (
	"fmt"

	"crystal/internal/device"
	"crystal/internal/model"
	"crystal/internal/queries"
	"crystal/internal/ssb"
)

func main() {
	ds := ssb.Generate(1)
	q, err := queries.ByID("q2.1")
	if err != nil {
		panic(err)
	}
	fmt.Println(q.Describe())
	fmt.Println()

	ref := queries.Reference(ds, q)
	fmt.Printf("%-16s %12s %10s\n", "engine", "ms (SF 1)", "rows")
	for _, e := range queries.Engines() {
		res := queries.Compile(ds, q).Run(e)
		status := "OK"
		if !res.Equal(ref) {
			status = "MISMATCH"
		}
		fmt.Printf("%-16s %12.3f %10d  %s\n", e, res.Milliseconds(), len(res.Groups), status)
	}

	// Decode a few result rows: payloads pack in join order (brand, year).
	fmt.Println("\nfirst result rows (decoded):")
	rows := ref.Rows()
	for i, row := range rows {
		if i >= 5 {
			break
		}
		vals := queries.UnpackGroup(row[0], 2)
		fmt.Printf("  year=%d brand=%s revenue=%d\n", vals[1], ssb.BrandName(vals[0]), row[1])
	}
	fmt.Printf("  ... %d rows total\n", len(rows))

	p := model.SF20()
	fmt.Println("\nSection 5.3 model at SF 20:")
	fmt.Printf("  GPU %.2f ms, CPU %.2f ms (paper derives 3.7 and 47; measures 3.86 and 125)\n",
		model.Query21(device.V100(), p)*1e3, model.Query21(device.I76900(), p)*1e3)
}
