package reportstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testRecord(i int) *Record {
	return &Record{
		At:     time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Source: []string{"api", "detector"}[i%2],
		Entity: fmt.Sprintf("svc-%d", i%5),
		Metric: "latency",
		App:    fmt.Sprintf("app-%d", i%3),
		Causes: []string{fmt.Sprintf("cause-%d", i%7)},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// storeModes are the two kinds of store. Every behaviour other than
// persistence — sequencing, filters, cursors, retention — must be identical
// across them, so those tests run once per mode.
var storeModes = []struct {
	name string
	open func(t *testing.T, opts Options) *Store
}{
	{"durable", func(t *testing.T, opts Options) *Store { return mustOpen(t, t.TempDir(), opts) }},
	{"memory", func(t *testing.T, opts Options) *Store {
		st := OpenMemory(opts)
		t.Cleanup(func() { st.Close() })
		return st
	}},
}

// forEachMode runs fn as one subtest per store mode.
func forEachMode(t *testing.T, fn func(t *testing.T, open func(Options) *Store)) {
	for _, mode := range storeModes {
		t.Run(mode.name, func(t *testing.T) {
			fn(t, func(opts Options) *Store { return mode.open(t, opts) })
		})
	}
}

func TestAppendAssignsMonotonicSeqs(t *testing.T) {
	forEachMode(t, testAppendAssignsMonotonicSeqs)
}

func testAppendAssignsMonotonicSeqs(t *testing.T, open func(Options) *Store) {
	st := open(Options{})
	for i := 0; i < 10; i++ {
		seq, err := st.Append(testRecord(i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := int64(i + 1); seq != want {
			t.Fatalf("Append %d: seq = %d, want %d", i, seq, want)
		}
	}
	if got := st.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	// A caller-provided seq ahead of the store is adopted; one behind is not.
	seq, err := st.Append(&Record{Seq: 100, Entity: "e"})
	if err != nil || seq != 100 {
		t.Fatalf("adopt caller seq: got (%d, %v), want (100, nil)", seq, err)
	}
	seq, err = st.Append(&Record{Seq: 7, Entity: "e"})
	if err != nil || seq != 101 {
		t.Fatalf("stale caller seq: got (%d, %v), want (101, nil)", seq, err)
	}
}

// TestReopenRecoversAcknowledgedRecords is the kill -9 contract: every record
// whose Append returned is replayed by a fresh Open over the same directory,
// with no Close in between (a crashed process never closes).
func TestReopenRecoversAcknowledgedRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	// No st.Close(): simulate kill -9 by abandoning the handle.
	re := mustOpen(t, dir, Options{})
	if got := re.Len(); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	page, err := re.Query(Query{Limit: MaxLimit})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for i, rec := range page.Records {
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d: seq %d, want %d", i, rec.Seq, i+1)
		}
		if want := testRecord(i).Entity; rec.Entity != want {
			t.Fatalf("record %d: entity %q, want %q", i, rec.Entity, want)
		}
	}
	st.Close()
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st.Close()
	seg := filepath.Join(dir, segmentName)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop three bytes off the final record: a crash mid-write.
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	if got := re.Len(); got != 9 {
		t.Fatalf("recovered %d records after torn tail, want 9", got)
	}
	if tr := re.Stats().Truncated; tr == 0 {
		t.Fatal("Stats.Truncated = 0, want > 0")
	}
	// Appends continue cleanly on the repaired boundary.
	seq, err := re.Append(testRecord(99))
	if err != nil || seq != 10 {
		t.Fatalf("append after repair: got (%d, %v), want (10, nil)", seq, err)
	}
	re2 := mustOpen(t, dir, Options{})
	if got := re2.Len(); got != 10 {
		t.Fatalf("re-recovered %d records, want 10", got)
	}
}

func TestCorruptTailCRCDropped(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st.Close()
	seg := filepath.Join(dir, segmentName)
	buf, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF // flip a payload byte in the final record
	if err := os.WriteFile(seg, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir, Options{})
	if got := re.Len(); got != 4 {
		t.Fatalf("recovered %d records after CRC corruption, want 4", got)
	}
}

func TestRetentionCompaction(t *testing.T) {
	forEachMode(t, func(t *testing.T, open func(Options) *Store) {
		checkRetention(t, open(Options{MaxRecords: 100, NoSync: true}))
	})
	// The compacted segment survives reopen with identical contents.
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{MaxRecords: 100, NoSync: true})
	stats := checkRetention(t, st)
	st.Close()
	re := mustOpen(t, dir, Options{MaxRecords: 100})
	if re.Len() != stats.Records || re.LastSeq() != 1000 {
		t.Fatalf("reopen: %d records last %d, want %d last 1000", re.Len(), re.LastSeq(), stats.Records)
	}
}

// checkRetention appends 1000 records to a store capped at 100 and checks
// that compaction kept exactly the newest, contiguous suffix.
func checkRetention(t *testing.T, st *Store) Stats {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatal("no compactions after 10x overshoot")
	}
	if stats.Records > 125 {
		t.Fatalf("retained %d records, want <= 125", stats.Records)
	}
	// The newest records survive, contiguous up to the last seq.
	page, err := st.Query(Query{AfterSeq: 1000 - int64(stats.Records), Limit: MaxLimit})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(page.Records) != stats.Records {
		t.Fatalf("queried %d, want %d", len(page.Records), stats.Records)
	}
	if last := page.Records[len(page.Records)-1].Seq; last != 1000 {
		t.Fatalf("last seq %d, want 1000", last)
	}
	return stats
}

func TestQueryFilters(t *testing.T) {
	forEachMode(t, testQueryFilters)
}

func testQueryFilters(t *testing.T, open func(Options) *Store) {
	st := open(Options{NoSync: true})
	for i := 0; i < 60; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{Limit: MaxLimit}, 60},
		{"entity", Query{Entity: "svc-0", Limit: MaxLimit}, 12},
		{"app", Query{App: "app-1", Limit: MaxLimit}, 20},
		{"cause", Query{Cause: "cause-3", Limit: MaxLimit}, 9},
		{"source", Query{Source: "api", Limit: MaxLimit}, 30},
		{"entity+source", Query{Entity: "svc-0", Source: "api", Limit: MaxLimit}, 6},
		{"since-seq", Query{SinceSeq: 50, Limit: MaxLimit}, 10},
		{"time-range", Query{
			Since: time.Date(2026, 1, 1, 0, 10, 0, 0, time.UTC),
			Until: time.Date(2026, 1, 1, 0, 19, 0, 0, time.UTC),
			Limit: MaxLimit,
		}, 10},
		{"none", Query{Entity: "absent", Limit: MaxLimit}, 0},
	}
	for _, tc := range cases {
		page, err := st.Query(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(page.Records) != tc.want {
			t.Errorf("%s: %d records, want %d", tc.name, len(page.Records), tc.want)
		}
		if page.NextCursor != "" {
			t.Errorf("%s: unexpected next cursor on exhausted scan", tc.name)
		}
	}
}

func TestPaginationWalksEverything(t *testing.T) {
	forEachMode(t, testPaginationWalksEverything)
}

func testPaginationWalksEverything(t *testing.T, open func(Options) *Store) {
	st := open(Options{NoSync: true})
	const n = 257
	for i := 0; i < n; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("pagination did not terminate")
		}
		q := Query{Limit: 10}
		if cursor != "" {
			after, err := ParseCursor(cursor)
			if err != nil {
				t.Fatalf("ParseCursor(%q): %v", cursor, err)
			}
			q.AfterSeq = after
		}
		page, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range page.Records {
			got = append(got, rec.Seq)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(got) != n {
		t.Fatalf("walked %d records, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != int64(i+1) {
			t.Fatalf("position %d: seq %d, want %d", i, seq, i+1)
		}
	}
}

func TestCursorRoundTripAndRejects(t *testing.T) {
	for _, seq := range []int64{0, 1, 42, 1 << 40} {
		got, err := ParseCursor(Cursor(seq))
		if err != nil || got != seq {
			t.Fatalf("round trip %d: got (%d, %v)", seq, got, err)
		}
	}
	for _, bad := range []string{"", "not-base64!", "djE6", "djI6NQ", Cursor(-1)} {
		if _, err := ParseCursor(bad); err == nil {
			t.Errorf("ParseCursor(%q): want error", bad)
		}
	}
}

// TestPaginate10kUnderConcurrentIngest is the acceptance drill: 10k+
// persisted reports paginate with stable cursors while appends continue.
// Every record that existed when the walk began must be seen exactly once, in
// order, regardless of interleaved ingest.
func TestPaginate10kUnderConcurrentIngest(t *testing.T) {
	forEachMode(t, testPaginate10kUnderConcurrentIngest)
}

func testPaginate10kUnderConcurrentIngest(t *testing.T, open func(Options) *Store) {
	st := open(Options{NoSync: true})
	const preload = 10_000
	for i := 0; i < preload; i++ {
		if _, err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Append(testRecord(w*1000 + i)); err != nil {
					t.Errorf("concurrent append: %v", err)
					return
				}
			}
		}(w)
	}
	var seen []int64
	after := int64(0)
	for len(seen) < preload {
		page, err := st.Query(Query{AfterSeq: after, Limit: 500})
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Records) == 0 {
			t.Fatalf("scan dried up at %d records", len(seen))
		}
		for _, rec := range page.Records {
			if rec.Seq <= after {
				t.Fatalf("cursor went backwards: seq %d after %d", rec.Seq, after)
			}
			after = rec.Seq
			seen = append(seen, rec.Seq)
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i < preload; i++ {
		if seen[i] != int64(i+1) {
			t.Fatalf("position %d: seq %d, want %d (lost or duplicated under ingest)", i, seen[i], i+1)
		}
	}
}

// TestCompactionConsistentUnderConcurrency hammers appends, queries, and the
// retention compactor together; run under -race in CI. Invariants: pages stay
// ascending and duplicate-free, and the retained suffix always ends at the
// newest acknowledged seq.
func TestCompactionConsistentUnderConcurrency(t *testing.T) {
	forEachMode(t, testCompactionConsistentUnderConcurrency)
}

func testCompactionConsistentUnderConcurrency(t *testing.T, open func(Options) *Store) {
	st := open(Options{MaxRecords: 200, NoSync: true})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, err := st.Append(testRecord(w*2000 + i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			page, err := st.Query(Query{Limit: 50})
			if err != nil {
				t.Errorf("query: %v", err)
				return
			}
			last := int64(0)
			for _, rec := range page.Records {
				if rec.Seq <= last {
					t.Errorf("page out of order: %d after %d", rec.Seq, last)
					return
				}
				last = rec.Seq
			}
		}
	}()
	wg.Wait() // appenders done; then release the queryer
	close(stop)
	qwg.Wait()
	if got, want := st.LastSeq(), int64(6000); got != want {
		t.Fatalf("LastSeq = %d, want %d", got, want)
	}
	if n := st.Len(); n > 250 {
		t.Fatalf("retention failed: %d records retained", n)
	}
	page, err := st.Query(Query{AfterSeq: 5900, Limit: MaxLimit})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 100 || page.Records[99].Seq != 6000 {
		t.Fatalf("newest suffix wrong: %d records, last %d", len(page.Records), page.Records[len(page.Records)-1].Seq)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir, Options{})
	payload := json.RawMessage(`{"seq":1,"source":"api","report":{"schema_version":1}}`)
	rec := testRecord(0)
	rec.Payload = payload
	if _, err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	st.Close()
	re := mustOpen(t, dir, Options{})
	page, err := re.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 1 {
		t.Fatalf("got %d records", len(page.Records))
	}
	if string(page.Records[0].Payload) != string(payload) {
		t.Fatalf("payload = %s, want %s", page.Records[0].Payload, payload)
	}
}

func TestClosedStoreRejects(t *testing.T) {
	forEachMode(t, func(t *testing.T, open func(Options) *Store) {
		st := open(Options{})
		st.Close()
		if _, err := st.Append(testRecord(0)); err != ErrClosed {
			t.Fatalf("Append after close: %v, want ErrClosed", err)
		}
		if _, err := st.Query(Query{}); err != ErrClosed {
			t.Fatalf("Query after close: %v, want ErrClosed", err)
		}
	})
}

// TestModesServeIdenticalPages feeds the same appends to a durable and a
// memory store under the same retention cap and requires every page of a
// filtered cursor walk to be identical between them.
func TestModesServeIdenticalPages(t *testing.T) {
	opts := Options{MaxRecords: 40, NoSync: true}
	durable := mustOpen(t, t.TempDir(), opts)
	memory := OpenMemory(opts)
	defer memory.Close()
	for i := 0; i < 300; i++ {
		for _, st := range []*Store{durable, memory} {
			if _, err := st.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d, m := durable.Stats().Compactions, memory.Stats().Compactions; d == 0 || d != m {
		t.Fatalf("compactions: durable %d, memory %d; want equal and > 0", d, m)
	}
	queries := []Query{
		{Limit: 7},
		{Entity: "svc-2", Limit: 3},
		{Cause: "cause-4", Limit: 2},
		{Source: "detector", SinceSeq: 280, Limit: 5},
	}
	for _, q := range queries {
		dq, mq := q, q
		for pages := 0; ; pages++ {
			dp, err := durable.Query(dq)
			if err != nil {
				t.Fatal(err)
			}
			mp, err := memory.Query(mq)
			if err != nil {
				t.Fatal(err)
			}
			dj, _ := json.Marshal(dp)
			mj, _ := json.Marshal(mp)
			if string(dj) != string(mj) {
				t.Fatalf("query %+v page %d differs:\ndurable %s\nmemory  %s", q, pages, dj, mj)
			}
			if dp.NextCursor == "" {
				break
			}
			dq.AfterSeq, _ = ParseCursor(dp.NextCursor)
			mq.AfterSeq, _ = ParseCursor(mp.NextCursor)
		}
	}
}
