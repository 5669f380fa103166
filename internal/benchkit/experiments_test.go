package benchkit

import (
	"testing"

	"dbgc/internal/lidar"
)

// TestExperimentsSmoke drives every experiment function on a minimal
// configuration; full sweeps run via cmd/dbgc-bench. Skipped under -short.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	qs := []float64{DefaultQ}

	rows9, err := Fig9([]lidar.SceneKind{lidar.City}, qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows9) != 6 { // the paper's five codecs, and DBGC under DefaultOptions
		t.Fatalf("Fig9 returned %d rows", len(rows9))
	}
	for _, r := range rows9 {
		if r.Ratio <= 1 || r.Mbps <= 0 {
			t.Fatalf("Fig9 row %+v implausible", r)
		}
	}
	if paper, def := rows9[0], rows9[5]; paper.Codec != "DBGC" || def.Codec != "DBGC-default" || def.Ratio <= paper.Ratio {
		t.Fatalf("Fig9: the paper's coders %+v, the default %+v", paper, def)
	}

	rows11, err := Fig11(qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows11) != 4 {
		t.Fatalf("Fig11 returned %d rows", len(rows11))
	}
	full := rows11[0]
	if full.Variant != "DBGC" || full.RelativeToFull != 1 {
		t.Fatalf("Fig11 full row %+v", full)
	}

	rows2, err := Table2(DefaultQ, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 12 { // 3 modes x 4 scenes
		t.Fatalf("Table2 returned %d rows", len(rows2))
	}

	rows12, err := Fig12(qs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows12 {
		if r.Compress <= 0 || r.Decompress <= 0 {
			t.Fatalf("Fig12 row %+v implausible", r)
		}
	}

	res13, err := Fig13(DefaultQ, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := res13.DEN + res13.OCT + res13.COR + res13.ORG + res13.SPA + res13.OUT
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("Fig13 shares sum to %v", sum)
	}

	thr, err := Throughput(DefaultQ, 1)
	if err != nil {
		t.Fatal(err)
	}
	if thr.CompressedMbps <= 0 || thr.RawMbps <= thr.CompressedMbps {
		t.Fatalf("Throughput %+v implausible", thr)
	}

	mem, err := Memory(DefaultQ)
	if err != nil {
		t.Fatal(err)
	}
	if mem.CompressHeapMB <= 0 {
		t.Fatalf("Memory %+v implausible", mem)
	}

	cl, err := ClusterExp(DefaultQ)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Jaccard < 0.8 || cl.ClusterSpeedup < 1 {
		t.Fatalf("ClusterExp %+v off expectations", cl)
	}
}
