package fleet

import (
	"slices"
	"strings"
	"testing"

	"crystal/internal/device"
	"crystal/internal/ssb"
)

func rowBytes(m ssb.Morsel) int64 { return int64(m.Rows()) * 36 }

func TestParseInterconnect(t *testing.T) {
	cases := map[string]string{
		"":        "pcie",
		"pcie":    "pcie",
		" PCIe ":  "pcie",
		"nvlink":  "nvlink",
		"NVLink":  "nvlink",
		" NVLINK": "nvlink",
	}
	for in, want := range cases {
		ic, err := ParseInterconnect(in)
		if err != nil || ic.Name != want {
			t.Errorf("ParseInterconnect(%q) = %v, %v; want %s", in, ic, err, want)
		}
		if ic.Bandwidth <= 0 {
			t.Errorf("%s: no bandwidth", want)
		}
	}
	if _, err := ParseInterconnect("infiniband"); err == nil {
		t.Error("unknown interconnect accepted")
	}
	if PCIe().Bandwidth != device.PCIeBandwidth {
		t.Error("PCIe link diverged from the paper's measured PCIe bandwidth")
	}
	if NVLink().Bandwidth <= PCIe().Bandwidth {
		t.Error("NVLink must model a faster link than PCIe")
	}
	if len(Interconnects()) != 2 {
		t.Errorf("Interconnects() = %d links, want 2", len(Interconnects()))
	}
}

func TestInterconnectTransferTime(t *testing.T) {
	ic := PCIe()
	if got := ic.TransferTime(int64(ic.Bandwidth)); got != 1.0 {
		t.Errorf("one bandwidth-second of bytes took %.3fs", got)
	}
	if ic.TransferTime(0) != 0 || ic.TransferTime(-5) != 0 {
		t.Error("non-positive byte counts must be free")
	}
	if !strings.Contains(ic.String(), "pcie") {
		t.Errorf("String() = %q", ic.String())
	}
}

func TestSpecNormalized(t *testing.T) {
	s, err := Spec{GPUs: 4}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if s.Device == nil || !s.Device.IsGPU() {
		t.Error("default device is not a GPU")
	}
	if s.Link.Name != "pcie" {
		t.Errorf("default link = %q, want pcie", s.Link.Name)
	}
	if !strings.Contains(s.String(), "4x") {
		t.Errorf("String() = %q", s.String())
	}
	if _, err := (Spec{GPUs: 0}).Normalized(); err == nil {
		t.Error("0 GPUs accepted")
	}
	if _, err := (Spec{GPUs: MaxGPUs + 1}).Normalized(); err == nil {
		t.Error("over-bound fleet accepted")
	}
	if _, err := (Spec{GPUs: 1, Link: Interconnect{Name: "broken"}}).Normalized(); err == nil {
		t.Error("zero-bandwidth link accepted")
	}
	if (Spec{}).String() == "" {
		t.Error("zero Spec should still render")
	}
}

// TestAssignPartition pins the scheduler's core contract: every morsel on
// exactly one device, shards contiguous and ascending, balanced to within
// one morsel.
func TestAssignPartition(t *testing.T) {
	ds := ssb.GenerateRows(64 * ssb.MorselAlign)
	morsels := ds.Partition(64)
	for _, gpus := range []int{1, 2, 3, 4, 8, 64, 100} {
		shards := Assign(morsels, gpus, 1<<40, rowBytes)
		if len(shards) != gpus {
			t.Fatalf("%d gpus: %d shards", gpus, len(shards))
		}
		seen := make([]bool, len(morsels))
		next := 0
		minSz, maxSz := len(morsels), 0
		for d, sh := range shards {
			if sh.Device != d {
				t.Fatalf("shard %d labeled device %d", d, sh.Device)
			}
			for _, mi := range sh.Morsels {
				if mi != next {
					t.Fatalf("%d gpus: shard %d not contiguous: got morsel %d, want %d", gpus, d, mi, next)
				}
				if seen[mi] {
					t.Fatalf("morsel %d assigned twice", mi)
				}
				seen[mi] = true
				next++
			}
			if len(sh.Spilled) != 0 {
				t.Fatalf("spill under unbounded capacity")
			}
			if n := len(sh.Morsels); n < minSz {
				minSz = n
			} else if n > maxSz {
				maxSz = n
			}
			_ = maxSz
		}
		if next != len(morsels) {
			t.Fatalf("%d gpus: only %d/%d morsels assigned", gpus, next, len(morsels))
		}
		// Split is the same range split, without the spill accounting.
		for d, sp := range Split(morsels, gpus) {
			if sh := shards[d]; sp.Device != sh.Device || sp.Rows != sh.Rows || !slices.Equal(sp.Morsels, sh.Morsels) ||
				sp.Spilled != nil || sp.SpillBytes != 0 || sp.ResidentBytes != 0 {
				t.Fatalf("%d gpus: Split shard %d = %+v, Assign's range is %+v", gpus, d, sp, sh)
			}
		}
		if gpus <= len(morsels) {
			for _, sh := range shards {
				if len(sh.Morsels) == 0 {
					t.Fatalf("%d gpus, %d morsels: idle device", gpus, len(morsels))
				}
			}
		}
	}
}

// TestAssignSpill pins the graceful-degradation contract: resident bytes
// never exceed capacity, spilled morsels are the suffix of each shard, and
// zero capacity spills everything.
func TestAssignSpill(t *testing.T) {
	ds := ssb.GenerateRows(8 * ssb.MorselAlign)
	morsels := ds.Partition(8)
	perMorsel := rowBytes(morsels[0])

	// Capacity for two and a half morsels: two resident, rest spilled.
	shards := Assign(morsels, 2, perMorsel*2+perMorsel/2, rowBytes)
	for _, sh := range shards {
		if sh.ResidentBytes > perMorsel*2+perMorsel/2 {
			t.Fatalf("device %d resident %d bytes over capacity", sh.Device, sh.ResidentBytes)
		}
		if sh.Resident() != 2 || len(sh.Spilled) != 2 {
			t.Fatalf("device %d: %d resident / %d spilled, want 2/2", sh.Device, sh.Resident(), len(sh.Spilled))
		}
		// Spilled morsels are the shard's suffix.
		for i, mi := range sh.Spilled {
			if want := sh.Morsels[len(sh.Morsels)-len(sh.Spilled)+i]; mi != want {
				t.Fatalf("device %d spilled %v, not a suffix of %v", sh.Device, sh.Spilled, sh.Morsels)
			}
		}
		if sh.SpillBytes != perMorsel*2 {
			t.Fatalf("device %d spill bytes = %d, want %d", sh.Device, sh.SpillBytes, perMorsel*2)
		}
	}

	// Zero capacity: everything spills, nothing resident.
	for _, sh := range Assign(morsels, 2, 0, rowBytes) {
		if sh.ResidentBytes != 0 || sh.Resident() != 0 {
			t.Fatalf("device %d holds bytes at zero capacity", sh.Device)
		}
		if int64(len(sh.Spilled)) == 0 || sh.SpillBytes == 0 {
			t.Fatalf("device %d did not spill at zero capacity", sh.Device)
		}
	}

	// Clamped gpus: Assign(…, 0, …) behaves as one device.
	one := Assign(morsels, 0, 1<<40, rowBytes)
	if len(one) != 1 || len(one[0].Morsels) != len(morsels) {
		t.Fatal("gpus < 1 should clamp to a single device")
	}
}
