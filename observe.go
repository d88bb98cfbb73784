package murphy

import (
	"net/http"

	"murphy/internal/obs"
)

// Stage identifies one phase of the diagnosis pipeline as seen by an
// Observer: train, prune, test, rank, explain.
type Stage = obs.Stage

// The pipeline stages, in execution order.
const (
	StageTrain   = obs.StageTrain
	StagePrune   = obs.StagePrune
	StageTest    = obs.StageTest
	StageRank    = obs.StageRank
	StageExplain = obs.StageExplain
)

// Observer receives the live event stream of an instrumented System:
// StageStart/StageEnd around every pipeline stage (with wall and process-CPU
// timings) and Progress as the candidate tests advance ("tested 14/63").
// Callbacks are serialized by the System — even when events originate on
// concurrent diagnosis workers — so implementations need no locking;
// they must not block, since they run inline with the pipeline.
type Observer = obs.Observer

// PipelineStats is a point-in-time copy of a System's instrumentation:
// per-stage span totals, counters, and histograms. It serializes to JSON and
// renders as an operator table via Table.
type PipelineStats = obs.Snapshot

// Recorder is the underlying instrumentation recorder a System writes its
// spans, counters, and histograms into. It is shared state: several Systems
// (or a System and the serve daemon's admission/queue machinery) may write
// into one Recorder so a single /metrics endpoint tells the whole story.
type Recorder = obs.Recorder

// NewRecorder returns a fresh, disabled Recorder, for sharing between a
// System (via WithRecorder) and other writers before enabling collection.
func NewRecorder() *Recorder { return obs.New() }

// WithRecorder makes the System record its instrumentation into r instead of
// a private recorder, so pipeline counters and externally recorded ones (the
// diagnosis daemon's ingest/queue/shedding counters) share one snapshot and
// one /metrics exposition. Apply it before WithObserver/WithStats — those
// act on whichever recorder the System holds at that point. A nil r is
// ignored.
func WithRecorder(r *Recorder) Option {
	return func(s *System) {
		if r != nil {
			s.rec = r
		}
	}
}

// WithObserver subscribes an observer to the pipeline's event stream and
// enables instrumentation for the session. Several observers may be
// attached; they all see the same serialized stream.
func WithObserver(o Observer) Option {
	return func(s *System) {
		s.rec.Attach(o)
		s.rec.Enable()
	}
}

// WithStats enables passive instrumentation (spans, counters, histograms —
// no observer callbacks); read the result back with Stats. Without this (or
// WithObserver) the instrumentation layer stays disabled and costs one
// predicted branch per call site.
func WithStats() Option {
	return func(s *System) { s.rec.Enable() }
}

// EnableStats turns instrumentation collection on (equivalent to the
// WithStats option, after construction); DisableStats turns it off again,
// keeping accumulated data.
func (s *System) EnableStats() { s.rec.Enable() }

// DisableStats stops instrumentation collection; accumulated data is kept.
func (s *System) DisableStats() { s.rec.Disable() }

// Stats returns a snapshot of the session's pipeline instrumentation. All
// zeros (Enabled false) unless WithStats/WithObserver/EnableStats turned
// collection on.
func (s *System) Stats() PipelineStats { return s.rec.Snapshot() }

// ResetStats zeroes the session's counters, stage totals, and histograms
// (observers stay attached). Meant for quiescent points between runs.
func (s *System) ResetStats() { s.rec.Reset() }

// MetricsHandler serves the session's instrumentation in the Prometheus text
// exposition format (the murphy_ namespace).
func (s *System) MetricsHandler() http.Handler { return s.rec.Handler() }

// ObservabilityMux builds an HTTP mux exposing the session's
// instrumentation: /metrics (Prometheus text), /stats (the PipelineStats
// JSON), /debug/vars (expvar), and — when withPprof is true —
// /debug/pprof/*. Mount it on a side port for always-on deployments so stage
// timings and profiles are scrapeable while diagnoses run.
func (s *System) ObservabilityMux(withPprof bool) *http.ServeMux {
	return obs.NewServeMux(s.rec, withPprof)
}
