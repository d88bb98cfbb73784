package main

import (
	"sort"
	"strconv"

	"murphy/internal/telemetry"
)

// plan is how a workload drives the daemon: its closed loops, the warm-up
// operations that end set-up, and the probe operations of the traced run.
type plan struct {
	loops []loop
	// op says what one operation of the loops is; the end-to-end op_*
	// metrics time every operation of every loop.
	op     string
	warmup []opSpec
	// probes run after the replay in the traced run, so every layer is
	// timed on every workload's data. Probe diagnoses are also sent to the
	// daemon after the timed phase of a traced run.
	probes   []opSpec
	window   int
	inctrain bool
}

// diagSamples is murphyd's Monte-Carlo sample budget per counterfactual
// test in every workload.
const diagSamples = 1000

// setupRepeats is how many times a run boots the daemon; setup_s is the
// median, and the last daemon serves the timed phase.
const setupRepeats = 5

func planHotel(in *inputs) plan {
	n := len(in.symptoms)
	p := plan{
		loops: []loop{{name: "diagnose", clients: 2, next: func(c, k int) opSpec {
			return opSpec{kind: opDiagnose, sym: in.symptoms[(in.phase+c+k)%n]}
		}}},
		op:     "POST /diagnose",
		warmup: []opSpec{{kind: opDiagnose, sym: in.symptoms[0]}},
		probes: []opSpec{{kind: opIngest, batch: 0}},
		window: 2016,
	}
	for _, s := range in.symptoms[:3] {
		p.probes = append(p.probes, readProbes(s.Entity)...)
	}
	return p
}

func planStream(in *inputs) plan {
	sym := in.symptoms[0]
	nb := len(in.batches)
	p := plan{
		loops: []loop{{name: "ingest_to_report", clients: 1, next: func(_, k int) opSpec {
			return opSpec{kind: opSlice, batch: k % nb, sym: sym}
		}}},
		op:       "POST /ingest of one slice, then POST /diagnose, to its durable report",
		warmup:   []opSpec{{kind: opDiagnose, sym: sym}},
		probes:   readProbes(sym.Entity),
		window:   300,
		inctrain: true,
	}
	truth := make([]telemetry.EntityID, 0, len(in.truth))
	for id := range in.truth {
		truth = append(truth, id)
	}
	sort.Slice(truth, func(i, j int) bool { return truth[i] < truth[j] })
	for _, id := range truth {
		p.probes = append(p.probes, readProbes(id)...)
	}
	return p
}

func planFleet(in *inputs) plan {
	nb, nr := len(in.batches), len(in.reads)
	return plan{
		loops: []loop{
			{name: "ingest", clients: 1, next: func(_, k int) opSpec {
				return opSpec{kind: opIngest, batch: (k + 1) % nb}
			}},
			{name: "read", clients: 1, next: func(_, k int) opSpec {
				return opSpec{kind: opRead, read: in.reads[k%nr]}
			}},
		},
		op:     "any request: POST /ingest batch or GET read",
		warmup: []opSpec{{kind: opIngest, batch: 0}},
		// One probe diagnosis: on 1,019 entities it takes seconds.
		probes: []opSpec{{kind: opDiagnose, sym: in.probeSym}},
		window: 300,
	}
}

// flags are the murphyd flags besides -listen, -snapshot and -reportdir.
func (p plan) flags() []string {
	f := []string{"-window", strconv.Itoa(p.window), "-samples", strconv.Itoa(diagSamples), "-workers", "2", "-detect-every", "0"}
	if p.inctrain {
		f = append([]string{"-inctrain"}, f...)
	}
	return f
}

// readProbes is one read of each kind about an entity.
func readProbes(id telemetry.EntityID) []opSpec {
	var ops []opSpec
	for k := readPerf; k <= readReports; k++ {
		ops = append(ops, opSpec{kind: opRead, read: readReq{kind: k, entity: id}})
	}
	return ops
}
