package main

import (
	"bytes"
	"strings"
	"testing"

	"murphy/internal/telemetry"
)

// TestSameSeedSameInputs checks that inputs are a pure function of the seed:
// snapshots, ingest batches and prefilled reports are byte-identical.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.gen(7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.gen(7)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.snapshot, b.snapshot) {
				t.Error("snapshots differ for the same seed")
			}
			if len(a.batches) == 0 || len(a.batches) != len(b.batches) {
				t.Fatalf("%d and %d batches", len(a.batches), len(b.batches))
			}
			for i := range a.batches {
				if !bytes.Equal(a.batches[i], b.batches[i]) || a.points[i] != b.points[i] {
					t.Errorf("batch %d differs for the same seed", i)
				}
			}
			if len(a.reports) != len(b.reports) {
				t.Fatalf("%d and %d reports", len(a.reports), len(b.reports))
			}
			for i := range a.reports {
				if !bytes.Equal(a.reports[i].Payload, b.reports[i].Payload) {
					t.Fatalf("report %d differs for the same seed", i)
				}
			}
			distinct := false
			for seed := int64(8); seed < 12 && !distinct; seed++ {
				c, err := w.gen(seed)
				if err != nil {
					t.Fatal(err)
				}
				distinct = !bytes.Equal(a.snapshot, c.snapshot) || !bytes.Equal(a.batches[0], c.batches[0]) || a.phase != c.phase
			}
			if !distinct {
				t.Error("seeds 8-11 all gave seed 7's inputs")
			}
			p := w.plan(a)
			if flags := "murphyd " + strings.Join(p.flags(), " ") + ";"; !strings.HasPrefix(w.why, flags) {
				t.Errorf("reason %q does not start with the flags %q", w.why, flags)
			}
		})
	}
}

func TestStreamSnapshotEndsAtFaultOnset(t *testing.T) {
	in, err := genStream(1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := telemetry.ReadJSON(bytes.NewReader(in.snapshot))
	if err != nil {
		t.Fatal(err)
	}
	// The fault window is the last tenth of 320 slices.
	if db.Len() != 288 || len(in.batches) != 32 {
		t.Errorf("snapshot has %d slices and %d batches; want 288 and 32", db.Len(), len(in.batches))
	}
	for i, n := range in.points {
		if n != 682 {
			t.Fatalf("batch %d has %d points, want 682", i, n)
		}
	}
}
