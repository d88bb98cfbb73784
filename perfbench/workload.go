package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"time"

	"murphy"
	"murphy/internal/enterprise"
	"murphy/internal/microsim"
	"murphy/internal/reportstore"
	"murphy/internal/serve"
	"murphy/internal/telemetry"
)

// workload is one traffic mix the benchmark drives the daemon with.
type workload struct {
	name string
	// why is the one-sentence reason the workload exists, after the exact
	// murphyd flags it runs with.
	why string
	// gen builds the workload's inputs from the seed.
	gen func(seed int64) (*inputs, error)
	// plan says how the inputs drive the daemon.
	plan func(in *inputs) plan
}

var workloads = []workload{
	{
		name: "hotel-triage",
		why:  "murphyd -window 2016 -samples 1000 -workers 2 -detect-every 0; 2 clients POST /diagnose; full retrain, so window reads, feature ranking and the ridge fit dominate",
		gen:  genHotel,
		plan: planHotel,
	},
	{
		name: "enterprise-stream",
		why:  "murphyd -inctrain -window 300 -samples 1000 -workers 2 -detect-every 0; 1 client ingests a slice, then diagnoses; ~120 candidates, so Gibbs sampling dominates",
		gen:  genStream,
		plan: planStream,
	},
	{
		name: "fleet-telemetry",
		why:  "murphyd -window 300 -samples 1000 -workers 2 -detect-every 0; 1 client ingests 4,527-point slices, 1 reads; JSON decode and DB.Observe contend with reads",
		gen:  genFleet,
		plan: planFleet,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs are everything a workload sends, generated from the seed before
// the daemon starts.
type inputs struct {
	// snapshot is the bootstrap telemetry snapshot (telemetry.WriteJSON form).
	snapshot []byte
	// symptoms are the /diagnose targets, sent round-robin starting at
	// phase; the first is the one warm-up diagnoses.
	symptoms []telemetry.Symptom
	phase    int
	// scored marks the symptoms whose diagnoses count toward
	// truth_top5_ratio; truth is the set of entities that count as a hit.
	scored map[telemetry.Symptom]bool
	truth  map[telemetry.EntityID]bool
	// batches are encoded /ingest bodies, replayed cyclically; points is
	// the number of observations in each.
	batches [][]byte
	points  []int
	// reads are the read requests, cycled in order.
	reads []readReq
	// probeSym is the symptom of the probe diagnoses of a workload that
	// makes none of its own.
	probeSym telemetry.Symptom
	// reports, when non-nil, are written into the report directory through
	// reportstore before the daemon starts.
	reports []*reportstore.Record
}

// readKind is one endpoint of the daemon's read surface.
type readKind int

const (
	readPerf readKind = iota
	readTopology
	readReports
)

// readReq is one read request.
type readReq struct {
	kind   readKind
	entity telemetry.EntityID
}

// Read parameters of the fleet-telemetry read mix.
const (
	readWindow = 300
	readDepth  = 2
	readLimit  = 100
)

func (r readReq) path() string {
	switch r.kind {
	case readPerf:
		return fmt.Sprintf("/entities/%s/performance?window=%d", r.entity, readWindow)
	case readTopology:
		return fmt.Sprintf("/topology?entity=%s&depth=%d", url.QueryEscape(string(r.entity)), readDepth)
	default:
		return fmt.Sprintf("/reports?entity=%s&limit=%d", url.QueryEscape(string(r.entity)), readLimit)
	}
}

// snapshotWire mirrors the telemetry snapshot JSON so the benchmark can cut
// and slice it without a DB.
type snapshotWire struct {
	IntervalSeconds int                                         `json:"interval_seconds"`
	Entities        []*telemetry.Entity                         `json:"entities"`
	Edges           [][2]telemetry.EntityID                     `json:"edges"`
	Series          map[telemetry.EntityID]map[string][]float64 `json:"series"`
	Events          []telemetry.Event                           `json:"events,omitempty"`
}

func encodeDB(db *telemetry.DB) (*snapshotWire, []byte, error) {
	var buf bytes.Buffer
	if err := db.WriteJSON(&buf); err != nil {
		return nil, nil, fmt.Errorf("encode snapshot: %w", err)
	}
	var snap snapshotWire
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return nil, nil, fmt.Errorf("decode snapshot: %w", err)
	}
	return &snap, buf.Bytes(), nil
}

// truncate returns the snapshot cut to its first n slices.
func (s *snapshotWire) truncate(n int) ([]byte, error) {
	cut := *s
	cut.Series = make(map[telemetry.EntityID]map[string][]float64, len(s.Series))
	for id, ms := range s.Series {
		m := make(map[string][]float64, len(ms))
		for name, vals := range ms {
			if len(vals) > n {
				vals = vals[:n]
			}
			m[name] = vals
		}
		cut.Series[id] = m
	}
	cut.Events = nil
	for _, ev := range s.Events {
		if ev.Slice < n {
			cut.Events = append(cut.Events, ev)
		}
	}
	return json.Marshal(&cut)
}

// batch encodes the observations of slice t as one /ingest body with no
// explicit slice, so the daemon appends it as its next slice. withEvents
// adds the configuration changes recorded at t; a non-nil rng shuffles the
// points.
func (s *snapshotWire) batch(t int, withEvents bool, rng *rand.Rand) ([]byte, int, error) {
	var b serve.IngestBatch
	for _, e := range s.Entities {
		ms := s.Series[e.ID]
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if vals := ms[name]; t < len(vals) {
				b.Observations = append(b.Observations, serve.IngestPoint{Entity: e.ID, Metric: name, Value: vals[t]})
			}
		}
	}
	if rng != nil {
		rng.Shuffle(len(b.Observations), func(i, j int) {
			b.Observations[i], b.Observations[j] = b.Observations[j], b.Observations[i]
		})
	}
	if withEvents {
		for _, ev := range s.Events {
			if ev.Slice == t {
				b.Events = append(b.Events, serve.IngestEvent{Kind: ev.Kind, Entity: ev.Entity, Detail: ev.Detail})
			}
		}
	}
	body, err := json.Marshal(&b)
	return body, len(b.Observations), err
}

// envSeed generates every workload's environment. The generators' seeds
// change the environment's shape and with it the cost of each operation:
// enterprise incident 2 has 134 to 154 entities over seeds 1-10, and the
// hotel scenario moves its fault, and the number of candidates, to another
// service. So the environment is fixed, and the benchmark seed varies what
// the clients send.
const envSeed = 1

// genHotel: the contention scenario on hotel-reservation, long enough that
// a 2,016-slice window ends inside the fault. The seed sets where in the
// symptom list the clients start.
func genHotel(seed int64) (*inputs, error) {
	opts := microsim.DefaultContentionOptions()
	opts.Steps = 2100
	opts.Seed = envSeed
	sc, err := microsim.Contention(opts)
	if err != nil {
		return nil, err
	}
	snap, raw, err := encodeDB(sc.Result.DB)
	if err != nil {
		return nil, err
	}
	// One batch of the last slice's values, for the ingest probe.
	last, n, err := snap.batch(opts.Steps-1, false, nil)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		snapshot: raw,
		batches:  [][]byte{last},
		points:   []int{n},
		scored:   map[telemetry.Symptom]bool{sc.Symptom: true},
		truth:    map[telemetry.EntityID]bool{sc.TruthEntity: true},
	}
	for _, id := range sc.Acceptable {
		in.truth[id] = true
	}
	topo := microsim.HotelReservation()
	entry := topo.Entrypoints[0]
	in.symptoms = append(in.symptoms, sc.Symptom,
		telemetry.Symptom{Entity: sc.Result.FlowEntity["client"], Metric: telemetry.MetricRTT, High: true})
	// Every service on the client's call tree, in call order.
	seen := map[string]bool{}
	var walk func(name string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		in.symptoms = append(in.symptoms, telemetry.Symptom{Entity: sc.Result.ServiceEntity[name], Metric: telemetry.MetricLatency, High: true})
		for _, c := range topo.Services[name].Children {
			walk(c)
		}
	}
	walk(entry)
	in.phase = rand.New(rand.NewSource(seed)).Intn(len(in.symptoms))
	return in, nil
}

// genStream: enterprise incident 2 (the crawler heavy hitter). The
// bootstrap snapshot ends at fault onset; the batches are the fault-window
// slices, replayed cyclically from onset. The seed shuffles the order of
// the points within each batch: where in the fault window the stream
// starts changes the candidate count, and with it the cost of a diagnosis.
func genStream(seed int64) (*inputs, error) {
	gen := enterprise.DefaultGenOptions()
	gen.Apps, gen.Hosts, gen.Steps, gen.Seed = 8, 8, 320, envSeed
	env, inc, err := enterprise.RunIncident(gen, enterprise.ByIndex(2))
	if err != nil {
		return nil, err
	}
	snap, _, err := encodeDB(env.DB)
	if err != nil {
		return nil, err
	}
	boot, err := snap.truncate(inc.Start)
	if err != nil {
		return nil, err
	}
	in := &inputs{
		snapshot: boot,
		symptoms: []telemetry.Symptom{inc.Symptom},
		scored:   map[telemetry.Symptom]bool{inc.Symptom: true},
		truth:    map[telemetry.EntityID]bool{},
	}
	for _, id := range inc.Truth {
		in.truth[id] = true
	}
	rng := rand.New(rand.NewSource(seed))
	for t := inc.Start; t < inc.End; t++ {
		body, n, err := snap.batch(t, true, rng)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, body)
		in.points = append(in.points, n)
	}
	return in, nil
}

// Fleet sizes.
const (
	fleetApps    = 56
	fleetSteps   = 320
	fleetCycle   = 64 // slices replayed cyclically by the ingest client
	fleetReports = 10000
)

// fleetEpoch timestamps the prefilled reports, so the same seed writes the
// same bytes.
var fleetEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// genFleet: the enterprise metrics timeline of a 56-app fleet, no incident.
// The seed picks the replayed stretch of the timeline, the order of the
// points in a batch and of the entities read, and the prefilled reports.
func genFleet(seed int64) (*inputs, error) {
	gen := enterprise.DefaultGenOptions()
	gen.Apps, gen.Hosts, gen.Steps, gen.Seed = fleetApps, fleetApps, fleetSteps, envSeed
	env, err := enterprise.Generate(gen)
	if err != nil {
		return nil, err
	}
	if err := env.Run(); err != nil {
		return nil, err
	}
	snap, raw, err := encodeDB(env.DB)
	if err != nil {
		return nil, err
	}
	in := &inputs{snapshot: raw}
	rng := rand.New(rand.NewSource(seed))
	from := rng.Intn(fleetSteps - fleetCycle + 1)
	for t := from; t < from+fleetCycle; t++ {
		body, n, err := snap.batch(t, false, rng)
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, body)
		in.points = append(in.points, n)
	}
	// Every entity, in a seed-shuffled order: which entities are read sets
	// the cost of a read, so every seed reads them all.
	for _, i := range rng.Perm(len(snap.Entities)) {
		id := snap.Entities[i].ID
		for k := readPerf; k <= readReports; k++ {
			in.reads = append(in.reads, readReq{kind: k, entity: id})
		}
	}
	first := in.reads[0].entity
	metrics := make([]string, 0, len(snap.Series[first]))
	for name := range snap.Series[first] {
		metrics = append(metrics, name)
	}
	sort.Strings(metrics)
	in.probeSym = telemetry.Symptom{Entity: first, Metric: metrics[0], High: true}
	in.reports, err = fleetReportRecords(snap, rng)
	return in, err
}

// fleetReportRecords builds fleetReports records shaped like the daemon's
// own: a symptom on a random entity, one to three certified causes from the
// same application, and the full wire record as payload.
func fleetReportRecords(snap *snapshotWire, rng *rand.Rand) ([]*reportstore.Record, error) {
	byApp := map[string][]telemetry.EntityID{}
	for _, e := range snap.Entities {
		byApp[e.App] = append(byApp[e.App], e.ID)
	}
	recs := make([]*reportstore.Record, 0, fleetReports)
	for i := 0; i < fleetReports; i++ {
		e := snap.Entities[rng.Intn(len(snap.Entities))]
		names := make([]string, 0, len(snap.Series[e.ID]))
		for name := range snap.Series[e.ID] {
			names = append(names, name)
		}
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		sym := telemetry.Symptom{Entity: e.ID, Metric: names[rng.Intn(len(names))], High: rng.Intn(4) != 0}
		peers := byApp[e.App]
		rep := &murphy.Report{SchemaVersion: murphy.SchemaVersion, Symptom: sym}
		for j := 0; j < 8 && j < len(peers); j++ {
			rep.Candidates = append(rep.Candidates, peers[rng.Intn(len(peers))])
		}
		var causes []string
		for j, n := 0, 1+rng.Intn(3); j < n; j++ {
			c := peers[rng.Intn(len(peers))]
			causes = append(causes, string(c))
			rep.Causes = append(rep.Causes, murphy.Cause{
				Entity:      c,
				Score:       1 + 9*rng.Float64(),
				PValue:      rng.Float64() * 0.01,
				Effect:      0.5 + 2*rng.Float64(),
				Path:        []telemetry.EntityID{c, e.ID},
				SamplesUsed: 2000,
				Explanation: fmt.Sprintf("%s is overloaded, which slows %s", c, e.ID),
			})
		}
		source := "detector"
		if rng.Intn(3) == 0 {
			source = "api"
		}
		at := fleetEpoch.Add(time.Duration(i) * time.Minute)
		wire := &serve.ReportRecord{
			Seq: i + 1, Source: source, Symptom: sym, Report: rep,
			QueuedMs: 100 * rng.Float64(), WallMs: 50 + 900*rng.Float64(), CompletedAt: at,
		}
		payload, err := json.Marshal(wire)
		if err != nil {
			return nil, err
		}
		recs = append(recs, &reportstore.Record{
			Seq: int64(i + 1), At: at, Source: source, Entity: string(e.ID), Metric: sym.Metric,
			App: e.App, Causes: causes, Payload: payload,
		})
	}
	return recs, nil
}

// writeReports fills dir with recs through reportstore's public API. The
// per-append fsync is skipped: this is input preparation, and Close flushes
// the segment before the daemon opens it.
func writeReports(dir string, recs []*reportstore.Record) error {
	st, err := reportstore.Open(dir, reportstore.Options{NoSync: true})
	if err != nil {
		return err
	}
	for _, r := range recs {
		if _, err := st.Append(r); err != nil {
			st.Close()
			return fmt.Errorf("prefill report store: %w", err)
		}
	}
	return st.Close()
}
