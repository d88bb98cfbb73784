package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"murphy"
	"murphy/internal/serve"
	"murphy/internal/telemetry"
)

// opKind is what one client operation does.
type opKind int

const (
	opDiagnose opKind = iota // POST /diagnose
	opIngest                 // POST /ingest
	opSlice                  // POST /ingest one slice, then POST /diagnose
	opRead                   // one GET of the read surface
)

// opSpec is one operation's input.
type opSpec struct {
	kind  opKind
	sym   telemetry.Symptom
	batch int // index into inputs.batches
	read  readReq
}

// opRecord is one operation as the untraced run saw it.
type opRecord struct {
	spec  opSpec
	start time.Duration // from the start of the timed phase
	latMs float64
	// ingestMs is the /ingest part of an opSlice.
	ingestMs float64
	failed   bool
	why      string // failure reason
	// Diagnosis results.
	seq              int
	queuedMs, wallMs float64
	scored, truthHit bool
	// points is the number of observations an ingest had accepted.
	points int
}

// loop is one closed loop: clients that each send their next operation as
// soon as the previous one has been answered.
type loop struct {
	name    string
	clients int
	// next returns client c's k-th operation.
	next func(c, k int) opSpec
}

// loadgen sends operations to a daemon and checks the answers.
type loadgen struct {
	d  *daemon
	in *inputs
}

// exec sends one operation and checks its answer. Latency runs from sending
// the request to having read and checked the whole response.
func (lg *loadgen) exec(ctx context.Context, spec opSpec) opRecord {
	rec := opRecord{spec: spec}
	t0 := time.Now()
	switch spec.kind {
	case opDiagnose:
		lg.diagnose(ctx, spec.sym, &rec)
	case opIngest:
		lg.ingest(ctx, spec.batch, &rec)
	case opSlice:
		lg.ingest(ctx, spec.batch, &rec)
		rec.ingestMs = msSince(t0)
		if !rec.failed {
			lg.diagnose(ctx, spec.sym, &rec)
		}
	case opRead:
		lg.readOne(ctx, spec.read, &rec)
	}
	rec.latMs = msSince(t0)
	return rec
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

func (r *opRecord) fail(format string, args ...any) {
	r.failed = true
	if r.why == "" {
		r.why = fmt.Sprintf(format, args...)
	}
}

// topK is how many leading certified causes truth_top5_ratio looks at.
const topK = 5

func (lg *loadgen) diagnose(ctx context.Context, sym telemetry.Symptom, rec *opRecord) {
	body, err := json.Marshal(serve.DiagnoseRequest{Symptom: sym})
	if err != nil {
		rec.fail("encode diagnose request: %v", err)
		return
	}
	code, resp, err := lg.d.post(ctx, "/diagnose", body)
	if err != nil {
		rec.fail("POST /diagnose: %v", err)
		return
	}
	if code != http.StatusOK {
		rec.fail("POST /diagnose: status %d: %s", code, resp)
		return
	}
	var rr serve.ReportRecord
	if err := json.Unmarshal(resp, &rr); err != nil {
		rec.fail("decode report: %v", err)
		return
	}
	rec.seq, rec.queuedMs, rec.wallMs = rr.Seq, rr.QueuedMs, rr.WallMs
	switch {
	case rr.Err != "":
		rec.fail("diagnosis error: %s", rr.Err)
	case rr.Report == nil:
		rec.fail("diagnosis without report")
	case rr.Report.SchemaVersion != murphy.SchemaVersion:
		rec.fail("report schema %d, want %d", rr.Report.SchemaVersion, murphy.SchemaVersion)
	case rr.Report.Partial:
		rec.fail("partial report")
	case len(rr.Report.Candidates) == 0:
		rec.fail("report has no candidates")
	}
	if lg.in.scored[sym] {
		rec.scored = true
		rec.truthHit = truthInTop(rr.Report, lg.in.truth)
	}
}

// truthInTop reports whether one of the first topK certified causes is a
// ground-truth entity.
func truthInTop(rep *murphy.Report, truth map[telemetry.EntityID]bool) bool {
	if rep == nil {
		return false
	}
	n := 0
	for _, c := range rep.Causes {
		if c.Degraded {
			continue
		}
		if truth[c.Entity] {
			return true
		}
		if n++; n == topK {
			break
		}
	}
	return false
}

func (lg *loadgen) ingest(ctx context.Context, i int, rec *opRecord) {
	code, resp, err := lg.d.post(ctx, "/ingest", lg.in.batches[i])
	if err != nil {
		rec.fail("POST /ingest: %v", err)
		return
	}
	if code != http.StatusOK {
		rec.fail("POST /ingest: status %d: %s", code, resp)
		return
	}
	var res serve.IngestResult
	if err := json.Unmarshal(resp, &res); err != nil {
		rec.fail("decode ingest ack: %v", err)
		return
	}
	rec.points = res.Accepted
	if res.Accepted != lg.in.points[i] {
		rec.fail("ingest accepted %d of %d points (%v)", res.Accepted, lg.in.points[i], res.Rejected)
	}
}

func (lg *loadgen) readOne(ctx context.Context, r readReq, rec *opRecord) {
	code, resp, err := lg.d.get(ctx, r.path())
	if err != nil {
		rec.fail("GET %s: %v", r.path(), err)
		return
	}
	if code != http.StatusOK {
		rec.fail("GET %s: status %d: %s", r.path(), code, resp)
		return
	}
	if err := checkRead(r, resp); err != nil {
		rec.fail("GET %s: %v", r.path(), err)
	}
}

// checkRead decodes a read response and checks that it answers the query.
func checkRead(r readReq, body []byte) error {
	switch r.kind {
	case readPerf:
		var s murphy.EntitySummary
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		if s.Entity != r.entity || len(s.Metrics) == 0 {
			return fmt.Errorf("summary of %q with %d metrics", s.Entity, len(s.Metrics))
		}
	case readTopology:
		var t murphy.Topology
		if err := json.Unmarshal(body, &t); err != nil {
			return err
		}
		if t.Center != r.entity || len(t.Nodes) == 0 {
			return fmt.Errorf("topology centred on %q with %d nodes", t.Center, len(t.Nodes))
		}
	case readReports:
		var p serve.ReportPage
		if err := json.Unmarshal(body, &p); err != nil {
			return err
		}
		if p.Count != len(p.Reports) || p.Count > readLimit {
			return fmt.Errorf("page count %d with %d reports", p.Count, len(p.Reports))
		}
	}
	return nil
}

// loopResult is what one closed loop measured.
type loopResult struct {
	name    string
	clients int
	ops     []opRecord
	elapsed time.Duration // until the loop's last answer
}

// runLoops runs every loop's clients until the timed phase ends. A client
// that is mid-operation at the end finishes it; that operation counts.
func (lg *loadgen) runLoops(loops []loop, dur time.Duration) []loopResult {
	ctx := context.Background()
	start := time.Now()
	stopAt := start.Add(dur)
	results := make([]loopResult, len(loops))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for li, l := range loops {
		results[li] = loopResult{name: l.name, clients: l.clients}
		for c := 0; c < l.clients; c++ {
			wg.Add(1)
			go func(li, c int, l loop) {
				defer wg.Done()
				var ops []opRecord
				for k := 0; time.Now().Before(stopAt); k++ {
					spec := l.next(c, k)
					at := time.Since(start)
					rec := lg.exec(ctx, spec)
					rec.start = at
					ops = append(ops, rec)
				}
				end := time.Since(start)
				mu.Lock()
				results[li].ops = append(results[li].ops, ops...)
				if end > results[li].elapsed {
					results[li].elapsed = end
				}
				mu.Unlock()
			}(li, c, l)
		}
	}
	wg.Wait()
	for i := range results {
		sort.Slice(results[i].ops, func(a, b int) bool { return results[i].ops[a].start < results[i].ops[b].start })
	}
	return results
}

// durabilityCheck pages through GET /reports and returns the acknowledged
// sequence numbers the store cannot find.
func (lg *loadgen) durabilityCheck(acked []int) ([]int, error) {
	found := map[int]bool{}
	cursor := ""
	for {
		path := "/reports?limit=1000"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var page struct {
			Reports    []struct{ Seq int } `json:"reports"`
			NextCursor string              `json:"next_cursor"`
		}
		if err := lg.d.getJSON(path, &page); err != nil {
			return nil, err
		}
		for _, r := range page.Reports {
			found[r.Seq] = true
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	var missing []int
	for _, s := range acked {
		if !found[s] {
			missing = append(missing, s)
		}
	}
	return missing, nil
}
