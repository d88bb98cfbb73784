// The daemon's operator query surface: GET /topology (relationship-graph
// neighborhoods), GET /entities/{ref}/performance (sliding-window summaries),
// and GET /reports (search over the report store). All three ride the same admission and
// drain lifecycle as the write path: a draining daemon answers 503, and a
// bounded read semaphore sheds excess concurrency with 429 + Retry-After
// instead of letting queries pile onto a busy daemon.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"murphy"
	"murphy/internal/obs"
	"murphy/internal/reportstore"
	"murphy/internal/telemetry"
)

// ReportPage is the wire form of a GET /reports response: one page of
// matching report records (each a full ReportRecord), ascending by seq, plus
// the cursor resuming the scan.
type ReportPage struct {
	Reports []json.RawMessage `json:"reports"`
	Count   int               `json:"count"`
	// NextCursor is the opaque token for the next page; absent when the scan
	// is exhausted.
	NextCursor string `json:"next_cursor,omitempty"`
}

// readAdmit is the read-path admission gate: 503 while not ready (draining
// daemons must shed their load balancer), 429 once MaxConcurrentReads queries
// are already in flight. On success the caller must invoke release.
func (s *Server) readAdmit(w http.ResponseWriter) (release func(), ok bool) {
	if s.State() != StateReady {
		s.rec.Add(obs.CtrReadShed, 1)
		s.writeShed(w, 1, "daemon is "+s.State().String()+", not serving queries")
		return nil, false
	}
	select {
	case s.readSem <- struct{}{}:
		return func() { <-s.readSem }, true
	default:
		s.rec.Add(obs.CtrReadShed, 1)
		s.writeShed(w, 1, "read admission limit reached")
		return nil, false
	}
}

// handleTopology serves GET /topology?entity=&depth=: the relationship-graph
// neighborhood around an entity, nodes typed by entity kind and annotated
// with whether they can influence the center. Oversized depths clamp to the
// facade maximum (echoed in the response); malformed parameters answer 400,
// unknown entities 404.
func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	release, ok := s.readAdmit(w)
	if !ok {
		return
	}
	defer release()
	q := r.URL.Query()
	entity := q.Get("entity")
	if entity == "" {
		writeErr(w, http.StatusBadRequest, "missing entity parameter")
		return
	}
	depth := 0
	if v := q.Get("depth"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad depth: want a non-negative integer")
			return
		}
		depth = n
	}
	top, err := s.sys.Topology(telemetry.EntityID(entity), depth)
	if err != nil {
		if errors.Is(err, murphy.ErrUnknownEntity) {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.rec.Add(obs.CtrTopologyQueries, 1)
	writeJSON(w, http.StatusOK, top)
}

// handleEntityPerf serves GET /entities/{ref}/performance?window=: per-metric
// sliding-window summaries (mean/p50/p95/p99, anomaly score, trained-factor
// residual health when incremental training is live). Entity refs contain
// slashes, so the ref is everything between the /entities/ prefix and the
// /performance suffix.
func (s *Server) handleEntityPerf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	release, ok := s.readAdmit(w)
	if !ok {
		return
	}
	defer release()
	rest := strings.TrimPrefix(r.URL.Path, "/entities/")
	ref, found := strings.CutSuffix(rest, "/performance")
	if !found {
		writeErr(w, http.StatusNotFound, "unknown resource: want /entities/{ref}/performance")
		return
	}
	if ref == "" {
		writeErr(w, http.StatusBadRequest, "missing entity ref")
		return
	}
	window := 0
	if v := r.URL.Query().Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad window: want a positive integer slice count")
			return
		}
		window = n
	}
	sum, err := s.sys.EntitySummary(telemetry.EntityID(ref), window)
	if err != nil {
		if errors.Is(err, murphy.ErrUnknownEntity) {
			writeErr(w, http.StatusNotFound, err.Error())
			return
		}
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.rec.Add(obs.CtrPerfQueries, 1)
	writeJSON(w, http.StatusOK, sum)
}

// handleReports serves GET /reports: a paginated search over completed
// diagnosis reports by entity, app, certified cause, source, and completion
// time range, answered by the report store (durable with Config.ReportDir,
// memory-only without; the search semantics are the same). ?since= accepts
// either a sequence number or an RFC3339 timestamp; anything else is a 400.
func (s *Server) handleReports(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	release, ok := s.readAdmit(w)
	if !ok {
		return
	}
	defer release()
	q, err := parseReportQuery(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	sp, err := s.store.Query(q)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "report store: "+err.Error())
		return
	}
	page := &ReportPage{NextCursor: sp.NextCursor}
	for _, rec := range sp.Records {
		payload := rec.Payload
		if len(payload) == 0 {
			// A record without an embedded wire payload (not produced by
			// this daemon) still serves its indexed fields.
			buf, err := json.Marshal(rec)
			if err != nil {
				continue
			}
			payload = buf
		}
		page.Reports = append(page.Reports, payload)
	}
	page.Count = len(page.Reports)
	s.rec.Add(obs.CtrReportQueries, 1)
	writeJSON(w, http.StatusOK, page)
}

// parseReportQuery validates a /reports query string into a store query.
// Unknown parameters are ignored (the schema stays open); malformed values of
// known parameters are errors, never silently defaulted.
func parseReportQuery(vals url.Values) (reportstore.Query, error) {
	var q reportstore.Query
	q.Entity = vals.Get("entity")
	q.App = vals.Get("app")
	q.Cause = vals.Get("cause")
	q.Source = vals.Get("source")
	if v := vals.Get("since"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			if n < 0 {
				return q, fmt.Errorf("bad since: negative sequence number %d", n)
			}
			q.SinceSeq = int64(n)
		} else if ts, terr := time.Parse(time.RFC3339, v); terr == nil {
			q.Since = ts
		} else {
			return q, fmt.Errorf("bad since: %q is neither a sequence number nor an RFC3339 timestamp", v)
		}
	}
	if v := vals.Get("until"); v != "" {
		ts, err := time.Parse(time.RFC3339, v)
		if err != nil {
			return q, fmt.Errorf("bad until: %q is not an RFC3339 timestamp", v)
		}
		q.Until = ts
	}
	if !q.Since.IsZero() && !q.Until.IsZero() && q.Until.Before(q.Since) {
		return q, fmt.Errorf("bad time range: until %s precedes since %s", q.Until.Format(time.RFC3339), q.Since.Format(time.RFC3339))
	}
	if v := vals.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > reportstore.MaxLimit {
			return q, fmt.Errorf("bad limit: want an integer in [1, %d]", reportstore.MaxLimit)
		}
		q.Limit = n
	}
	if v := vals.Get("cursor"); v != "" {
		after, err := reportstore.ParseCursor(v)
		if err != nil {
			return q, fmt.Errorf("bad cursor: %v", err)
		}
		q.AfterSeq = after
	}
	return q, nil
}
