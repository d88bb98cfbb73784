// Package serve turns the one-shot diagnosis library into an always-on
// daemon: an HTTP/JSON ingest path that appends telemetry batches into the
// MonitoringDB as windows slide, a continuous symptom detector driving
// internal/anomaly over fresh windows, and a bounded diagnosis work queue
// feeding the facade's diagnosis entry points — plus the robustness
// machinery that makes the service production-shaped:
//
//   - Admission control and load shedding: the diagnosis queue and the
//     ingest path are bounded; overload answers 429/503 with Retry-After
//     instead of growing memory without bound.
//   - Per-request deadline propagation: a client deadline travels through
//     context into DiagnoseContext, so an expiring request yields a partial
//     report (certified causes kept, the rest flagged), never a hang.
//   - A watchdog that cancels diagnoses exceeding the stuck budget and
//     quarantines their symptom so the detector stops re-enqueueing it.
//   - Graceful drain on SIGTERM: stop admitting, finish in-flight work,
//     flush reports and a final state snapshot, then exit cleanly.
//   - Crash-safe periodic snapshots (temp file + atomic rename) with
//     recovery-on-restart, bounding data loss to one snapshot interval.
//
// The package is exercised end to end by the chaos soak harness (RunSoak),
// which runs the daemon under internal/chaos fault injection and sustained
// overload and asserts the degradation ladder.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"murphy"
	"murphy/internal/anomaly"
	"murphy/internal/obs"
	"murphy/internal/reportstore"
	"murphy/internal/telemetry"
)

// ErrTrainingDeadline annotates a diagnosis whose deadline expired during
// online training: there was no model to answer with, so the report is a
// partial shell whose Skipped entry carries this annotation (mirroring the
// degrade package's ErrNoneSelected convention of naming the "nothing useful
// happened" outcome rather than faking a result).
var ErrTrainingDeadline = errors.New("serve: deadline expired during online training; partial report carries no certified causes")

// ErrDrainCancelled annotates work cut short because the daemon was asked to
// stop and the drain grace period ran out.
var ErrDrainCancelled = errors.New("serve: cancelled during drain")

// State is the daemon lifecycle automaton.
type State int32

// Lifecycle states, in order.
const (
	// StateStarting covers construction and snapshot recovery; not ready.
	StateStarting State = iota
	// StateReady serves ingest and diagnosis traffic.
	StateReady
	// StateDraining stops admitting new work while in-flight finishes.
	StateDraining
	// StateStopped is terminal: all workers and loops have exited.
	StateStopped
)

func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	}
	return "unknown"
}

// Config tunes the daemon. Zero fields fall back to defaults suited to the
// emulated environments; production deployments scale QueueCap and Workers.
type Config struct {
	// QueueCap bounds the diagnosis work queue (default 16). A full queue
	// sheds with 429 + Retry-After — the queue is the only place diagnosis
	// work waits, so memory stays bounded under any offered load.
	QueueCap int
	// Workers is the number of diagnosis workers draining the queue
	// (default 1).
	Workers int
	// MaxBatchPoints caps the observations accepted in one ingest batch
	// (default 10000; larger batches answer 413).
	MaxBatchPoints int
	// MaxConcurrentIngest is the admission limit on simultaneously applied
	// ingest batches (default 4; excess answers 429 + Retry-After).
	MaxConcurrentIngest int
	// DefaultDeadline bounds a diagnosis when the client names none
	// (default 30 s).
	DefaultDeadline time.Duration
	// WatchdogTimeout is the hard per-diagnosis budget (default 2 min). A
	// diagnosis cancelled by the watchdog quarantines its symptom for
	// QuarantineFor so the detector stops feeding a stuck case back in.
	WatchdogTimeout time.Duration
	// QuarantineFor is how long a watchdog-killed symptom is banned from
	// detector re-enqueue (default 5 min).
	QuarantineFor time.Duration
	// DetectEvery is the continuous symptom detector cadence (0 disables
	// the detector; API-driven diagnosis still works).
	DetectEvery time.Duration
	// DetectTopK caps the symptoms enqueued per detector scan (default 4).
	DetectTopK int
	// DetectCooldown suppresses detector re-diagnosis of a symptom already
	// reported recently (default 30 s).
	DetectCooldown time.Duration
	// SnapshotPath is the crash-safe state snapshot file ("" disables
	// persistence). Snapshots are written to a temp file and renamed into
	// place, so a crash mid-write never corrupts the previous snapshot.
	SnapshotPath string
	// SnapshotEvery is the periodic snapshot cadence (default 30 s when
	// SnapshotPath is set). A snapshot is also written on drain.
	SnapshotEvery time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight work before
	// force-cancelling it (default 30 s).
	DrainTimeout time.Duration
	// ReportDir, when set, persists every completed report to an append-only
	// crash-safe segment store under the directory, and a diagnosis is
	// acknowledged to its client only after the durable append. "" keeps
	// reports in a memory-only store that does not survive the process.
	// Either way GET /reports searches the store (entity/app/cause/time
	// range, paginated).
	ReportDir string
	// ReportRetention caps the records the report store keeps (default
	// 10000); older records are compacted away.
	ReportRetention int
	// MaxConcurrentReads is the admission limit on simultaneously served
	// read queries — topology, per-entity performance, report search
	// (default 16; excess answers 429 + Retry-After).
	MaxConcurrentReads int
	// Pprof exposes /debug/pprof on the daemon mux when true.
	Pprof bool
	// Recorder, when set, receives the daemon's counters (and, via
	// WithRecorder, the pipeline's); nil allocates a private one.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxBatchPoints <= 0 {
		c.MaxBatchPoints = 10000
	}
	if c.MaxConcurrentIngest <= 0 {
		c.MaxConcurrentIngest = 4
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.WatchdogTimeout <= 0 {
		c.WatchdogTimeout = 2 * time.Minute
	}
	if c.QuarantineFor <= 0 {
		c.QuarantineFor = 5 * time.Minute
	}
	if c.DetectTopK <= 0 {
		c.DetectTopK = 4
	}
	if c.DetectCooldown <= 0 {
		c.DetectCooldown = 30 * time.Second
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.ReportRetention <= 0 {
		c.ReportRetention = 10000
	}
	if c.MaxConcurrentReads <= 0 {
		c.MaxConcurrentReads = 16
	}
	return c
}

// job is one unit of diagnosis work on the bounded queue.
type job struct {
	symptom  telemetry.Symptom
	deadline time.Duration
	source   string // "api" or "detector"
	// result, when non-nil, receives the completed record (buffered,
	// capacity 1, so a departed waiter never blocks the worker).
	result     chan *ReportRecord
	enqueuedAt time.Time
}

// ReportRecord is one completed (or failed) diagnosis as stored in the
// report store and served by the query API.
type ReportRecord struct {
	// Seq is the monotonically increasing completion sequence number.
	Seq int `json:"seq"`
	// Source is "api" for client-requested diagnoses, "detector" for the
	// continuous symptom detector's.
	Source string `json:"source"`
	// Symptom is the diagnosed (entity, metric, direction) triple.
	Symptom telemetry.Symptom `json:"symptom"`
	// Report is the versioned diagnosis report. On failure it is a partial
	// shell (Partial=true, the failure annotated in Skipped), never nil
	// and never a zero value.
	Report *murphy.Report `json:"report,omitempty"`
	// Err is the failure annotation, empty on success.
	Err string `json:"error,omitempty"`
	// Watchdog marks a diagnosis the watchdog cancelled and quarantined.
	Watchdog bool `json:"watchdog,omitempty"`
	// QueuedMs and WallMs are time spent waiting in the queue and being
	// diagnosed, in milliseconds.
	QueuedMs float64 `json:"queued_ms"`
	WallMs   float64 `json:"wall_ms"`
	// CompletedAt is the completion wall-clock time (UTC); report search
	// time-range filters run against it. Zero on records recovered from
	// snapshots written before the field existed.
	CompletedAt time.Time `json:"completed_at"`
}

// Server is the always-on diagnosis daemon over one monitoring database.
type Server struct {
	cfg Config
	db  *telemetry.DB
	sys *murphy.System
	rec *obs.Recorder
	det *anomaly.Detector

	ctx    context.Context
	cancel context.CancelFunc

	state     atomic.Int32
	queue     chan *job
	ingestSem chan struct{}
	readSem   chan struct{}
	wg        sync.WaitGroup

	// store holds every completed report: durable with Config.ReportDir,
	// memory-only without. Appends happen under mu so records land in seq
	// order; queries go straight to the store's own lock.
	store *reportstore.Store

	started time.Time

	mu          sync.Mutex
	seq         int
	pending     map[telemetry.Symptom]bool
	quarantine  map[telemetry.Symptom]time.Time
	recent      map[telemetry.Symptom]time.Time
	inflight    int
	maxDepth    int
	ewmaMs      float64
	lastScanned int
	dirty       bool
	lastSnap    time.Time
}

// New builds a daemon over db. sysOpts customize the underlying diagnosis
// System (chaos/resilience sources, sampling parameters, …); the daemon
// prepends WithRecorder so pipeline and daemon counters share one recorder.
// Call Restore (optional) and then Start before serving the Mux.
func New(db *telemetry.DB, cfg Config, sysOpts ...murphy.Option) (*Server, error) {
	cfg = cfg.withDefaults()
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.New()
	}
	rec.Enable()
	opts := append([]murphy.Option{murphy.WithRecorder(rec)}, sysOpts...)
	sys, err := murphy.New(db, opts...)
	if err != nil {
		return nil, fmt.Errorf("serve: build diagnosis system: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		db:          db,
		sys:         sys,
		rec:         rec,
		det:         anomaly.NewDetector(),
		ctx:         ctx,
		cancel:      cancel,
		queue:       make(chan *job, cfg.QueueCap),
		ingestSem:   make(chan struct{}, cfg.MaxConcurrentIngest),
		readSem:     make(chan struct{}, cfg.MaxConcurrentReads),
		pending:     make(map[telemetry.Symptom]bool),
		quarantine:  make(map[telemetry.Symptom]time.Time),
		recent:      make(map[telemetry.Symptom]time.Time),
		lastScanned: -1,
	}
	storeOpts := reportstore.Options{MaxRecords: cfg.ReportRetention}
	if cfg.ReportDir == "" {
		s.store = reportstore.OpenMemory(storeOpts)
	} else {
		store, err := reportstore.Open(cfg.ReportDir, storeOpts)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("serve: open report store: %w", err)
		}
		s.store = store
		// Resume the completion sequence past everything already persisted;
		// Recover later raises it further if the snapshot is ahead.
		s.seq = int(store.LastSeq())
	}
	s.state.Store(int32(StateStarting))
	return s, nil
}

// ReportStore exposes the report store (memory-only without
// Config.ReportDir); tests and the CLI use it to inspect durability.
func (s *Server) ReportStore() *reportstore.Store { return s.store }

// State returns the daemon's lifecycle state.
func (s *Server) State() State { return State(s.state.Load()) }

// System exposes the underlying diagnosis session (for tests and the CLI).
func (s *Server) System() *murphy.System { return s.sys }

// Start launches the diagnosis workers and the detector/snapshot loops and
// flips the daemon to ready.
func (s *Server) Start() {
	s.started = time.Now()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.cfg.DetectEvery > 0 {
		s.wg.Add(1)
		go s.detectorLoop()
	}
	if s.cfg.SnapshotPath != "" {
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	s.state.Store(int32(StateReady))
}

// enqueue admits a job onto the bounded queue. It reports whether the job
// was admitted and, when shed, the suggested Retry-After in seconds. The
// state check and the channel send share the server mutex so a drain that
// has flipped the state observes no enqueue in flight after it locks once.
func (s *Server) enqueue(j *job) (ok bool, retryAfter int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.State() != StateReady {
		s.rec.Add(obs.CtrDiagShed, 1)
		return false, s.retryAfterLocked()
	}
	select {
	case s.queue <- j:
		s.rec.Add(obs.CtrDiagEnqueued, 1)
		if d := len(s.queue); d > s.maxDepth {
			s.maxDepth = d
		}
		if j.source == "detector" {
			s.pending[j.symptom] = true
		}
		return true, 0
	default:
		s.rec.Add(obs.CtrDiagShed, 1)
		return false, s.retryAfterLocked()
	}
}

// retryAfterLocked estimates how long until queue capacity frees up, from
// the observed per-diagnosis latency EWMA. Callers hold s.mu.
func (s *Server) retryAfterLocked() int {
	per := s.ewmaMs
	if per <= 0 {
		per = 1000
	}
	backlog := len(s.queue) + s.inflight
	secs := int(math.Ceil(float64(backlog+1) * per / 1000 / float64(s.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// worker drains the diagnosis queue until the daemon context is cancelled.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one diagnosis under its deadline and the watchdog, then
// records the outcome.
func (s *Server) runJob(j *job) {
	s.rec.Add(obs.CtrDiagDequeued, 1)
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}()

	deadline := j.deadline
	watchdogBound := deadline <= 0 || deadline >= s.cfg.WatchdogTimeout
	if watchdogBound {
		// The watchdog is the hard ceiling: even an unbounded client
		// request cannot hold a worker past it.
		deadline = s.cfg.WatchdogTimeout
	}
	jctx, cancel := context.WithTimeout(s.ctx, deadline)
	start := time.Now()
	report, err := s.sys.DiagnoseContext(jctx, j.symptom)
	elapsed := time.Since(start)
	cancel()

	rec := &ReportRecord{
		Source:   j.source,
		Symptom:  j.symptom,
		Report:   report,
		QueuedMs: float64(start.Sub(j.enqueuedAt)) / float64(time.Millisecond),
		WallMs:   float64(elapsed) / float64(time.Millisecond),
	}
	if err != nil {
		// Never hand back a zero-value report: annotate the failure in a
		// partial shell so the query API and the waiting client both see
		// what happened and what (nothing) was certified.
		reason := err.Error()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			if watchdogBound {
				// The hard budget, not the client's deadline, fired:
				// quarantine the symptom so the detector stops feeding a
				// stuck case back into the queue.
				rec.Watchdog = true
				s.rec.Add(obs.CtrWatchdogCancels, 1)
				s.mu.Lock()
				s.quarantine[j.symptom] = time.Now().Add(s.cfg.QuarantineFor)
				s.mu.Unlock()
				reason = fmt.Sprintf("serve: watchdog cancelled diagnosis after %s (budget %s); symptom quarantined", elapsed.Round(time.Millisecond), s.cfg.WatchdogTimeout)
			} else {
				reason = fmt.Sprintf("%v (deadline %s)", ErrTrainingDeadline, deadline)
			}
		case errors.Is(err, context.Canceled):
			reason = ErrDrainCancelled.Error()
		}
		rec.Err = reason
		rec.Report = partialReport(j.symptom, reason)
	}
	s.complete(j, rec, elapsed)
}

// partialReport is the shell answering a diagnosis that certified nothing:
// Partial, with the reason annotated as the symptom entity's Skipped entry.
func partialReport(sym telemetry.Symptom, reason string) *murphy.Report {
	return &murphy.Report{
		SchemaVersion: murphy.SchemaVersion,
		Symptom:       sym,
		Partial:       true,
		Skipped:       []murphy.Skipped{{Entity: sym.Entity, Reason: reason}},
	}
}

// cancelledRecord answers a queued job that never ran because the daemon
// stopped first.
func cancelledRecord(j *job) *ReportRecord {
	reason := ErrDrainCancelled.Error()
	return &ReportRecord{
		Source:  j.source,
		Symptom: j.symptom,
		Err:     reason,
		Report:  partialReport(j.symptom, reason),
	}
}

// complete stamps, stores, and delivers one finished record. With
// Config.ReportDir the record is durably appended (fsync) before it is
// delivered to the waiting client — an HTTP 200 on /diagnose therefore
// implies the report survives kill -9.
func (s *Server) complete(j *job, rec *ReportRecord, elapsed time.Duration) {
	s.rec.Add(obs.CtrDiagCompleted, 1)
	s.mu.Lock()
	s.seq++
	rec.Seq = s.seq
	rec.CompletedAt = time.Now().UTC()
	ms := float64(elapsed) / float64(time.Millisecond)
	if s.ewmaMs == 0 {
		s.ewmaMs = ms
	} else {
		s.ewmaMs = 0.8*s.ewmaMs + 0.2*ms
	}
	if j.source == "detector" {
		delete(s.pending, j.symptom)
		s.recent[j.symptom] = time.Now()
	}
	s.dirty = true
	// Store under mu: seq assignment and the append share the lock, so the
	// store stays in seq order across concurrent workers. A durable append's
	// fsync costs ~1ms — noise next to the diagnosis it concludes.
	if srec := s.storeRecord(rec); srec != nil {
		if _, err := s.store.Append(srec); err == nil && s.cfg.ReportDir != "" {
			s.rec.Add(obs.CtrReportsPersisted, 1)
		}
		// An append error (disk full, store closed mid-shutdown) still
		// answers the waiting client but leaves the report out of /reports;
		// reports_persisted falling behind diag_completed is the operator
		// signal.
	}
	s.mu.Unlock()
	if j.result != nil {
		j.result <- rec
	}
}

// storeRecord maps a completed record to its persisted form: the indexed
// search fields plus the full wire record as payload.
func (s *Server) storeRecord(rec *ReportRecord) *reportstore.Record {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil
	}
	srec := &reportstore.Record{
		Seq:     int64(rec.Seq),
		At:      rec.CompletedAt,
		Source:  rec.Source,
		Entity:  string(rec.Symptom.Entity),
		Metric:  rec.Symptom.Metric,
		Failed:  rec.Err != "",
		Payload: payload,
	}
	if ent := s.db.Entity(rec.Symptom.Entity); ent != nil {
		srec.App = ent.App
	}
	if rec.Report != nil {
		for _, c := range rec.Report.Causes {
			if c.Degraded {
				continue // certified causes only; guesses are not searchable
			}
			srec.Causes = append(srec.Causes, string(c.Entity))
		}
	}
	return srec
}

// detectorLoop scans fresh windows for problematic symptoms and feeds them
// into the diagnosis queue, respecting quarantine, in-flight dedupe, and the
// re-diagnosis cooldown. Queue-full sheds silently (counted): the detector
// will see the symptom again on the next scan if it persists.
func (s *Server) detectorLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.DetectEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		if s.State() != StateReady {
			continue
		}
		now := s.db.Len() - 1
		s.mu.Lock()
		fresh := now >= 0 && now != s.lastScanned
		if fresh {
			s.lastScanned = now
		}
		s.mu.Unlock()
		if !fresh {
			continue
		}
		scored := s.det.ScanAll(s.db, now)
		enq := 0
		for _, sc := range scored {
			if enq >= s.cfg.DetectTopK {
				break
			}
			if !s.admitDetected(sc.Symptom) {
				continue
			}
			ok, _ := s.enqueue(&job{
				symptom:    sc.Symptom,
				deadline:   s.cfg.DefaultDeadline,
				source:     "detector",
				enqueuedAt: time.Now(),
			})
			if ok {
				enq++
			}
		}
	}
}

// admitDetected filters detector candidates through quarantine, pending
// dedupe, and the recent-report cooldown.
func (s *Server) admitDetected(sym telemetry.Symptom) bool {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if until, ok := s.quarantine[sym]; ok {
		if now.Before(until) {
			return false
		}
		delete(s.quarantine, sym)
	}
	if s.pending[sym] {
		return false
	}
	if at, ok := s.recent[sym]; ok && now.Sub(at) < s.cfg.DetectCooldown {
		return false
	}
	return true
}

// Drain gracefully stops the daemon: admission turns off (ingest and
// diagnosis answer 503, readiness flips), queued and in-flight diagnoses
// finish within DrainTimeout (then are force-cancelled into partial
// reports), loops stop, and — when persistence is configured — a final
// state snapshot is written and the report store closed. It is idempotent; the
// daemon ends in StateStopped with every goroutine joined.
func (s *Server) Drain(ctx context.Context) error {
	if !s.state.CompareAndSwap(int32(StateReady), int32(StateDraining)) {
		if s.State() == StateStopped {
			return nil
		}
		// Starting or already draining: fall through to the stop path so
		// concurrent callers all block until the daemon is down.
	}
	// Barrier: any enqueue that won the state race completes its channel
	// send before releasing the mutex; after this lock no new work appears.
	s.mu.Lock()
	s.mu.Unlock() //nolint:staticcheck // intentional barrier, not a critical section

	var drainErr error
	limit := time.NewTimer(s.cfg.DrainTimeout)
	defer limit.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		s.mu.Lock()
		idle := len(s.queue) == 0 && s.inflight == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-tick.C:
		case <-limit.C:
			drainErr = fmt.Errorf("serve: drain timeout after %s: force-cancelling in-flight diagnoses", s.cfg.DrainTimeout)
			break wait
		case <-ctx.Done():
			drainErr = fmt.Errorf("serve: drain cancelled: %w", ctx.Err())
			break wait
		}
	}
	// Stop workers and loops. In the forced path this cancels in-flight
	// job contexts too; DiagnoseContext returns promptly with an error and
	// the worker records a drain-cancelled partial report before exiting.
	s.cancel()
	s.wg.Wait()
	// Answer any jobs still sitting in the queue so their waiters unblock.
	for {
		select {
		case j := <-s.queue:
			s.complete(j, cancelledRecord(j), 0)
		default:
			if s.cfg.SnapshotPath != "" {
				if err := s.WriteSnapshot(); err != nil && drainErr == nil {
					drainErr = fmt.Errorf("serve: final snapshot: %w", err)
				}
			}
			if err := s.store.Close(); err != nil && drainErr == nil {
				drainErr = fmt.Errorf("serve: close report store: %w", err)
			}
			s.state.Store(int32(StateStopped))
			return drainErr
		}
	}
}

// Close force-stops the daemon without draining — the crash path (and test
// cleanup). Queued work is abandoned, no final snapshot is written; the
// latest periodic snapshot on disk is what a restart recovers.
func (s *Server) Close() {
	if s.State() == StateStopped {
		return
	}
	s.state.Store(int32(StateDraining))
	s.cancel()
	s.wg.Wait()
	// Unblock any API waiters on queued jobs.
	for {
		select {
		case j := <-s.queue:
			if j.result != nil {
				j.result <- cancelledRecord(j)
			}
		default:
			// A durable store fsynced every acknowledged report already;
			// closing just releases the handle.
			_ = s.store.Close()
			s.state.Store(int32(StateStopped))
			return
		}
	}
}

// status is the /statusz view of the daemon's live state.
type status struct {
	State        string  `json:"state"`
	UptimeS      float64 `json:"uptime_s"`
	QueueDepth   int     `json:"queue_depth"`
	QueueCap     int     `json:"queue_cap"`
	Inflight     int     `json:"inflight"`
	MaxDepth     int     `json:"max_queue_depth"`
	EwmaMs       float64 `json:"diagnosis_ewma_ms"`
	Seq          int     `json:"reports_completed"`
	Quarantined  int     `json:"quarantined"`
	LastScanned  int     `json:"last_scanned_slice"`
	DBSlices     int     `json:"db_slices"`
	LastSnapshot string  `json:"last_snapshot,omitempty"`
	Goroutines   int     `json:"goroutines"`
}
