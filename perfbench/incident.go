package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"secureangle/internal/journal"
	"secureangle/internal/wifi"
)

// The incident workload: set-up drives fleet traffic, attacks
// included, through a real 4-partition controller into a journal tree
// and closes the controller. The timed region runs
// journal.ReconstructIncident over that tree, round-robin over the
// attacked MACs, alternating a by-MAC query and a by-trace query for
// the same attack. Every query scans every record of every partition,
// so the tree's size sets the work per query.

// incidentPairs are driven into the tree in 64-pair batches, 10 of them
// attacks: ~6,200 records, so one query scans for ~10 ms. The size is a
// steadiness choice (README.md).
const incidentPairs = 2048

// incidentAttack is one attack the tree must hold a timeline for.
type incidentAttack struct {
	mac   wifi.Addr
	trace uint64
}

// incidentTree is a closed controller's journal tree.
type incidentTree struct {
	dir     string
	attacks []incidentAttack
}

// buildIncidentTree runs the fleet into dir and closes the controller.
func buildIncidentTree(in *fleetInputs, dir string) (*incidentTree, error) {
	f, err := newFleet(in, dir, false)
	if err != nil {
		return nil, err
	}
	reg := f.run(maxBatch, time.Hour, incidentPairs, false)
	if reg.err == nil {
		reg.err = f.awaitAcks()
	}
	if reg.err != nil {
		f.close()
		return nil, fmt.Errorf("driving traffic: %w", reg.err)
	}
	f.shutdown()
	t := &incidentTree{dir: dir}
	for a := 0; a < f.attacks; a++ {
		i := a*attackEvery + attackEvery - 1
		t.attacks = append(t.attacks, incidentAttack{mac: in.attacker(a).mac, trace: in.trace(i)})
	}
	return t, nil
}

// query runs query k of the round-robin and checks its timeline. A
// by-MAC query (even k) must hold the attack's reports from both APs,
// its decision, its directive and both acks; the by-trace query that
// follows it must return the same directive record.
func (t *incidentTree) query(k int, last *journal.TimelineEntry) (*journal.Incident, error) {
	a := t.attacks[(k/2)%len(t.attacks)]
	q := journal.IncidentQuery{MAC: a.mac, HasMAC: true}
	if k%2 == 1 {
		q = journal.IncidentQuery{Trace: a.trace}
	}
	inc, err := journal.ReconstructIncident(t.dir, q)
	if err != nil {
		return nil, err
	}
	var dir *journal.TimelineEntry
	reports, decisions := map[string]bool{}, 0
	acks := map[string]bool{}
	for i := range inc.Entries {
		e := &inc.Entries[i]
		switch e.Type {
		case journal.RecReport:
			reports[e.AP] = true
		case journal.RecDecision:
			decisions++
		case journal.RecDirective:
			if e.MAC == a.mac && e.Trace == a.trace {
				dir = e
			}
		case journal.RecAck:
			acks[e.AP] = true
		}
	}
	if dir == nil {
		return nil, fmt.Errorf("query %d: no directive for %s trace %016x", k, a.mac, a.trace)
	}
	if k%2 == 0 {
		if !reports[apNames[0]] || !reports[apNames[1]] || decisions == 0 || !acks[apNames[0]] || !acks[apNames[1]] {
			return nil, fmt.Errorf("query %d: timeline of %s incomplete: reports %v, %d decisions, acks %v", k, a.mac, reports, decisions, acks)
		}
		*last = *dir
	} else if dir.Partition != last.Partition || dir.LSN != last.LSN {
		return nil, fmt.Errorf("query %d: by-trace directive p%d/%d, by-MAC directive p%d/%d", k, dir.Partition, dir.LSN, last.Partition, last.LSN)
	}
	return inc, nil
}

// incidentRegion is what one timed region measured.
type incidentRegion struct {
	lat       latencies
	entries   int
	records   int
	cpu, wall time.Duration
	err       error
}

// run issues queries from an even k for d, and at least one by-MAC and
// by-trace pair; it stops at the first failure.
func (t *incidentTree) run(k int, d time.Duration) *incidentRegion {
	reg := &incidentRegion{}
	var last journal.TimelineEntry
	c0, w0 := cpuTime(), time.Now()
	for ; k%2 == 1 || len(reg.lat) == 0 || time.Since(w0) < d; k++ {
		t0 := time.Now()
		inc, err := t.query(k, &last)
		reg.lat = append(reg.lat, time.Since(t0))
		if err != nil {
			reg.err = err
			break
		}
		reg.entries += len(inc.Entries)
		reg.records += inc.Records
	}
	reg.cpu, reg.wall = cpuTime()-c0, time.Since(w0)
	return reg
}

func runIncident(cfg config) (*result, error) {
	printMeta(cfg)
	in := genFleetInputs(cfg.seed)
	n := 0
	t, setupS, err := timeSetups(func() (*incidentTree, error) {
		n++
		return buildIncidentTree(in, filepath.Join(cfg.work, fmt.Sprintf("journal-%d", n)))
	}, func(t *incidentTree) { os.RemoveAll(t.dir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(t.dir)
	res := &result{}
	account := func(reg *incidentRegion) {
		res.Attempted += int64(len(reg.lat))
		if reg.err != nil {
			res.Failed++
			fmt.Printf("# incident failed query: %v\n", reg.err)
		}
	}
	// Warm-up: one by-MAC/by-trace pair, which also fills the page cache.
	account(t.run(0, 0))
	// One timed region. The runtime's counters, read around it, feed
	// the traced breakdown.
	settle()
	memBefore := readMem()
	reg := t.run(2, cfg.seconds)
	memAfter := readMem()
	account(reg)
	res.Correct = res.Failed == 0
	p50, p90, p99, mean := reg.lat.summary()
	nq := float64(len(reg.lat))
	fmt.Printf("# incident attacks=%d samples=%d p50_us=%.1f mean_us=%.1f p99_us=%.1f records_per_query=%.0f\n",
		len(t.attacks), len(reg.lat), p50, mean, p99, float64(reg.records)/nq)
	if !cfg.trace {
		res.set("setup_s", setupS, "s")
		res.set("mean_us", mean, "us")
		res.set("cpu_us_per_op", float64(reg.cpu)/1e3/nq, "us")
		res.set("peak_rss_mb", peakRSSMB(), "MB")
		return res, nil
	}

	m, err := t.replay()
	if err != nil {
		return nil, err
	}
	m["journal.records_per_query"] = float64(reg.records) / nq
	m["incident.entries_per_query"] = float64(reg.entries) / nq
	m["e2e.p50_us"] = p50
	m["e2e.p90_us"] = p90
	m["e2e.p99_us"] = p99
	m["e2e.ops_per_s"] = nq / reg.wall.Seconds()
	m["e2e.samples"] = nq
	m["e2e.attacks"] = float64(len(t.attacks))
	m["go.gc_cycles"] = float64(memAfter.NumGC - memBefore.NumGC)
	m.fill(res)
	return res, nil
}

// replayPasses is how many times the layer replay scans the tree.
const replayPasses = 20

// replay times the read path's two layers over the whole tree: the
// segment scan with CRC check (journal.ReadRecords with a no-op
// callback), then the same scan decoding every event; the difference
// is the decode cost.
func (t *incidentTree) replay() (layerMetrics, error) {
	parts, err := filepath.Glob(filepath.Join(t.dir, "p*"))
	if err != nil {
		return nil, err
	}
	scan := func(decode bool) (time.Duration, error) {
		t0 := time.Now()
		for _, p := range parts {
			err := journal.ReadRecords(p, 0, func(rec journal.Record) error {
				if decode {
					_, err := journal.DecodeEvent(rec)
					return err
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	var read, both time.Duration
	for i := 0; i < replayPasses; i++ {
		r, err := scan(false)
		if err != nil {
			return nil, err
		}
		d, err := scan(true)
		if err != nil {
			return nil, err
		}
		read, both = read+r, both+d
	}
	m := layerMetrics{}
	m["journal.read_us_per_query"] = float64(read) / 1e3 / replayPasses
	m["journal.decode_us_per_query"] = float64(both-read) / 1e3 / replayPasses
	var bytes int64
	segs := 0
	for _, p := range parts {
		files, err := os.ReadDir(p)
		if err != nil {
			return nil, err
		}
		for _, fi := range files {
			if !strings.HasPrefix(fi.Name(), "wal-") {
				continue
			}
			info, err := fi.Info()
			if err != nil {
				return nil, err
			}
			bytes += info.Size()
			segs++
		}
	}
	m["journal.bytes_per_query"] = float64(bytes)
	m["journal.segments"] = float64(segs)
	return m, nil
}
