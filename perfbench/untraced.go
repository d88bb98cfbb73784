package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// untraced is what the run against the real daemon measured.
type untraced struct {
	setupS  []float64
	loops   []loopResult
	warmups []opRecord // of every set-up
	probes  []opRecord // probe diagnoses after the timed phase (traced runs)
	// before and after bracket the timed phase; final follows the probes.
	before, after, final *obsStats
	rssMB                float64
	missing              []int // acknowledged seqs GET /reports could not find
}

// runUntraced boots the daemon setupRepeats times, drives the last one
// through the timed phase, and stops it.
func runUntraced(c config, in *inputs, p plan, dir, snapPath string) (*untraced, error) {
	u := &untraced{}
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var d *daemon
	var acked []int
	for i := 0; i < setupRepeats; i++ {
		repDir := filepath.Join(dir, fmt.Sprintf("reports-%d", i))
		if in.reports != nil {
			if err := writeReports(repDir, in.reports); err != nil {
				return nil, err
			}
		}
		args := append(p.flags(), "-snapshot", snapPath, "-reportdir", repDir)
		t0 := time.Now()
		var err error
		if d, err = startDaemon(c.bin, args, client); err != nil {
			return nil, err
		}
		if err := d.waitReady(120 * time.Second); err != nil {
			_ = d.stop()
			return nil, err
		}
		lg := &loadgen{d: d, in: in}
		acked = acked[:0]
		for _, spec := range p.warmup {
			rec := lg.exec(context.Background(), spec)
			u.warmups = append(u.warmups, rec)
			if rec.seq > 0 {
				acked = append(acked, rec.seq)
			}
		}
		u.setupS = append(u.setupS, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.stop()

	lg := &loadgen{d: d, in: in}
	var err error
	if u.before, err = d.stats(); err != nil {
		return nil, err
	}
	u.loops = lg.runLoops(p.loops, c.dur)
	if u.after, err = d.stats(); err != nil {
		return nil, err
	}
	if c.trace {
		for _, spec := range p.probes {
			if spec.kind == opDiagnose {
				u.probes = append(u.probes, lg.exec(context.Background(), spec))
			}
		}
	}
	if u.final, err = d.stats(); err != nil {
		return nil, err
	}
	for _, l := range u.loops {
		for _, op := range l.ops {
			if op.seq > 0 {
				acked = append(acked, op.seq)
			}
		}
	}
	for _, op := range u.probes {
		if op.seq > 0 {
			acked = append(acked, op.seq)
		}
	}
	if u.missing, err = lg.durabilityCheck(acked); err != nil {
		return nil, fmt.Errorf("durability check: %w", err)
	}
	if u.rssMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	return u, d.stop()
}

// timedOps returns the successful operations of every loop, in the order
// they were sent, and the time the loops ran.
func (u *untraced) timedOps() (ops []opRecord, elapsed time.Duration) {
	for _, l := range u.loops {
		for _, op := range l.ops {
			if !op.failed {
				ops = append(ops, op)
			}
		}
		if l.elapsed > elapsed {
			elapsed = l.elapsed
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	return ops, elapsed
}

func latencies(ops []opRecord, f func(opRecord) float64) []float64 {
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = f(op)
	}
	return xs
}

func opLat(op opRecord) float64 { return op.latMs }

// report adds the end-to-end metrics (on untraced runs), prints the
// workload's own metrics, and runs the output checks and self-checks.
func (u *untraced) report(c config, p plan, res *result) {
	// Failures, counted against everything sent.
	all := append(append([]opRecord(nil), u.warmups...), u.probes...)
	for _, l := range u.loops {
		all = append(all, l.ops...)
	}
	shown := 0
	for _, op := range all {
		res.Attempted++
		if op.failed {
			res.Failed++
			if shown++; shown <= 5 {
				res.problem("operation failed: %s", op.why)
			}
		}
	}
	if len(u.missing) > 0 {
		res.Failed += len(u.missing)
		res.problem("%d acknowledged reports missing from GET /reports: seqs %v", len(u.missing), u.missing)
	}

	setup := medianOf(u.setupS)
	res.linef("setup_s %.4f s (median of %d set-ups: %v)", setup, len(u.setupS), roundAll(u.setupS, 4))
	head, elapsed := u.timedOps()
	d, err := summarize(latencies(head, opLat))
	if err != nil {
		res.problem("op latency: %v", err)
		return
	}
	rate := float64(len(head)) / elapsed.Seconds()
	res.linef("op_p50_ms %.4f ms, op_tail_ms %.4f ms (median p%.0f of %d segments), ops_per_s %.4f 1/s (n=%d over %.2fs; op = %s)",
		d.P50, d.Tail, d.TailPct, d.Segments, rate, d.N, elapsed.Seconds(), p.op)
	res.linef("peak_rss_mb %.2f MB", u.rssMB)
	if res.Attempted > 0 {
		res.linef("failed_ratio %.4f ratio (%d of %d operations)", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	if !c.trace {
		res.add("setup_s", setup, "s")
		res.add("op_p50_ms", d.P50, "ms")
		res.add("op_tail_ms", d.Tail, "ms")
		res.add("ops_per_s", rate, "1/s")
		res.add("peak_rss_mb", u.rssMB, "MB")
	}
	u.workloadLines(res)
	u.selfChecks(res)
}

// workloadLines prints each loop's own metrics under the names of the
// operation it times (diagnose_p50_ms, diagnoses_per_s, read_p50_ms, ...).
func (u *untraced) workloadLines(res *result) {
	for _, l := range u.loops {
		var ok []opRecord
		points := 0
		for _, op := range l.ops {
			if !op.failed {
				ok = append(ok, op)
				points += op.points
			}
		}
		secs := l.elapsed.Seconds()
		if d, err := summarize(latencies(ok, opLat)); err == nil {
			res.linef("%s_p50_ms %.4f ms, %s_tail_ms %.4f ms (median p%.0f of %d segments, n=%d), %ss_per_s %.4f 1/s",
				l.name, d.P50, l.name, d.Tail, d.TailPct, d.Segments, d.N, l.name, float64(d.N)/secs)
		} else {
			res.linef("%s: %v", l.name, err)
		}
		if l.name == "ingest_to_report" {
			if d, err := summarize(latencies(ok, func(op opRecord) float64 { return op.ingestMs })); err == nil {
				res.linef("ingest_p50_ms %.4f ms, ingest_tail_ms %.4f ms (median p%.0f of %d segments, n=%d)", d.P50, d.Tail, d.TailPct, d.Segments, d.N)
			}
		}
		if points > 0 {
			res.linef("ingest_points_per_s %.1f points/s", float64(points)/secs)
		}
		scored, hits := 0, 0
		for _, op := range ok {
			if op.scored {
				scored++
				if op.truthHit {
					hits++
				}
			}
		}
		if scored > 0 {
			res.linef("truth_top5_ratio %.4f ratio (%d of %d scored diagnoses)", float64(hits)/float64(scored), hits, scored)
		}
	}
}

// selfChecks fails the run when the measurements disagree with each other.
func (u *untraced) selfChecks(res *result) {
	for _, l := range u.loops {
		if len(l.ops) == 0 {
			res.problem("loop %s completed no operation", l.name)
			continue
		}
		// Every operation, failed or not, occupied its client.
		mean := 0.0
		for _, op := range l.ops {
			mean += op.latMs
		}
		mean /= float64(len(l.ops))
		ratio, err := littleCheck(l.clients, float64(len(l.ops))/l.elapsed.Seconds(), mean/1000)
		res.linef("self-check little_%s %.4f (clients %d = throughput × mean latency within %.0f%%)", l.name, ratio, l.clients, 100*littleTolerance)
		if err != nil {
			res.problem("loop %s: %v", l.name, err)
		}
	}
	// Client-side counts against the daemon's counters over the timed phase.
	var diags, points int64
	for _, l := range u.loops {
		for _, op := range l.ops {
			if op.seq > 0 {
				diags++
			}
			points += int64(op.points)
		}
	}
	for _, cmp := range []struct {
		counter string
		client  int64
	}{{"diag_completed", diags}, {"reports_persisted", diags}, {"ingest_points", points}} {
		delta := u.after.Counters[cmp.counter] - u.before.Counters[cmp.counter]
		res.linef("self-check count_%s client %d daemon %d", cmp.counter, cmp.client, delta)
		if delta != cmp.client {
			res.problem("client counted %d for %s, daemon /stats delta is %d", cmp.client, cmp.counter, delta)
		}
	}
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}

// diagnoseRecords returns every successful diagnosis the untraced run
// made after set-up: timed-phase and probe diagnoses.
func (u *untraced) diagnoseRecords() []opRecord {
	var out []opRecord
	for _, l := range u.loops {
		for _, op := range l.ops {
			if op.seq > 0 && !op.failed {
				out = append(out, op)
			}
		}
	}
	for _, op := range u.probes {
		if op.seq > 0 && !op.failed {
			out = append(out, op)
		}
	}
	return out
}
