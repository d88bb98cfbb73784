package main

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"murphy"
	"murphy/internal/serve"
	"murphy/internal/telemetry"
)

// TestLoopsAgainstInProcessDaemon drives an in-process daemon with the
// hotel-triage loops from two clients at once and checks what the run
// records: no failed operation, every acknowledged report findable, and
// client counts equal to the daemon's counters.
func TestLoopsAgainstInProcessDaemon(t *testing.T) {
	in, err := genHotel(1)
	if err != nil {
		t.Fatal(err)
	}
	p := planHotel(in)
	db, err := telemetry.ReadJSON(bytes.NewReader(in.snapshot))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(db, serve.Config{Workers: 2, ReportDir: t.TempDir()}, murphy.WithConfig(daemonConfig(p.window)))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	d := &daemon{base: ts.URL, client: newHTTPClient()}
	lg := &loadgen{d: d, in: in}
	before, err := d.stats()
	if err != nil {
		t.Fatal(err)
	}
	loops := lg.runLoops(p.loops, 500*time.Millisecond)
	after, err := d.stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 || len(loops[0].ops) < 2 {
		t.Fatalf("loops = %+v, want one loop with an operation per client", loops)
	}
	var acked []int
	for _, op := range loops[0].ops {
		if op.failed {
			t.Errorf("operation failed: %s", op.why)
		}
		acked = append(acked, op.seq)
	}
	missing, err := lg.durabilityCheck(acked)
	if err != nil || len(missing) > 0 {
		t.Errorf("durability check: missing %v, %v", missing, err)
	}
	if got := after.Counters["diag_completed"] - before.Counters["diag_completed"]; got != int64(len(acked)) {
		t.Errorf("daemon completed %d diagnoses, clients saw %d", got, len(acked))
	}
}
