package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/netproto"
	"secureangle/internal/ops"
	"secureangle/internal/partition"
	"secureangle/internal/testbed"
	"secureangle/internal/wifi"
)

// The fleet workloads: two protocol-v5 AP agents at the testbed's AP1
// and AP2 positions talk over loopback TCP to a 4-partition journaled
// controller configured as `secureangle serve` configures it. The loop
// is closed: an op sends reports and waits for the fused decisions on
// a Subscribe channel. fleet-b1 sends one report per frame; fleet-b64
// ships 64 reports per ReportBatch frame. One pair in attackEvery is a
// fresh MAC that, once its decision is in, AP1 flags with a spoof
// Alert; the op then waits for the quarantine directive at both agents
// and both agents ack it.

const (
	fleetPartitions = 4
	// fleetPopulation clients, drawn uniformly, all inside the fence;
	// every one is warmed with one pair in set-up. The size is a
	// steadiness choice, not a measured client count (README.md).
	fleetPopulation = 4096
	// attackEvery: pair attackEvery-1 of every run of attackEvery pairs
	// is a spoof attack on a fresh MAC. It is the alert rate of
	// `secureangle loadgen`, one alert per 200 pairs.
	attackEvery = 200
	// maxBatch is the largest batch. Within each aligned run of maxBatch
	// pairs the clients are distinct, so a batch never holds two reports
	// of one client.
	maxBatch = 64
	// fleetCyclePairs is the length of the client-index cycle the pair
	// stream repeats; a multiple of maxBatch.
	fleetCyclePairs = 1 << 16
	// fleetAttackSpots attacker positions are drawn and cycled; each
	// attack still gets a MAC of its own.
	fleetAttackSpots = 1024
	// fleetWarmPairs are sent before each timed region.
	fleetWarmPairs = 4096
	// fleetRSSPairs: peak_rss_mb is read once the timed region has
	// sent this many pairs. Each attack leaves state behind in the
	// controller, so a peak read at the end would follow how many pairs
	// the host's speed allowed; read at a fixed count, it follows the
	// program.
	fleetRSSPairs = 1 << 15
	// opTimeout bounds every wait; an op that hits it fails.
	opTimeout = 5 * time.Second
	// decisionBuffer is the Subscribe channel's depth: one 64-pair
	// round of decisions with room to spare, so none is dropped while
	// the benchmark goroutine is between receives.
	decisionBuffer = 256
)

// fleetClient is one transmitter: its MAC and its exact bearings from
// AP1 and AP2.
type fleetClient struct {
	mac        wifi.Addr
	deg1, deg2 float64
}

// fleetInputs is everything generated from the seed. Pair i of the
// stream is a fixed function of the seed and i: its client is
// cycle[i%fleetCyclePairs] (unused at attack slots), its trace ID is
// trace(i), and the attack at slot i is attacker(i/attackEvery). The
// tables are drawn before any timed region; trace IDs and attacker MACs
// are bijective hashes of the index, so the stream needs no storage
// that grows with the run.
type fleetInputs struct {
	pop   []fleetClient
	spots []fleetClient // attacker positions; mac unused
	cycle []uint16
	key   uint64
}

// warmBase offsets the warm-up pairs' trace indices past any stream
// index a run reaches.
const warmBase = 1 << 40

// genFleetInputs draws the population, the attacker positions and the
// client cycle from seed.
func genFleetInputs(seed int64) *fleetInputs {
	r := rand.New(rand.NewSource(seed))
	_, shell := testbed.Building()
	fence := &locate.Fence{Boundary: shell, MarginM: 0.5}
	seen := map[wifi.Addr]bool{}
	client := func() fleetClient {
		for {
			var mac wifi.Addr
			v := r.Uint64()
			for k := range mac {
				mac[k] = byte(v >> (8 * k))
			}
			mac[5] &^= 1 // attacker MACs have the low bit set
			p := geom.Point{X: r.Float64() * 24, Y: r.Float64() * 16}
			d1, d2 := geom.BearingDeg(testbed.AP1, p), geom.BearingDeg(testbed.AP2, p)
			cross := geom.AngularDistDeg(d1, d2)
			if seen[mac] || !fence.Allows(p) || cross < 30 || cross > 150 {
				continue
			}
			seen[mac] = true
			return fleetClient{mac: mac, deg1: d1, deg2: d2}
		}
	}
	in := &fleetInputs{
		pop:   make([]fleetClient, fleetPopulation),
		spots: make([]fleetClient, fleetAttackSpots),
		cycle: make([]uint16, fleetCyclePairs),
		key:   r.Uint64(),
	}
	for i := range in.pop {
		in.pop[i] = client()
	}
	for i := range in.spots {
		in.spots[i] = client()
	}
	inRun := map[uint16]bool{}
	for i := range in.cycle {
		if i%maxBatch == 0 {
			clear(inRun)
		}
		for {
			c := uint16(r.Intn(fleetPopulation))
			if !inRun[c] {
				inRun[c] = true
				in.cycle[i] = c
				break
			}
		}
	}
	return in
}

// isAttack reports whether pair i is a spoof attack.
func isAttack(i int) bool { return i%attackEvery == attackEvery-1 }

// client returns the population index of pair i, which is not an
// attack slot.
func (in *fleetInputs) client(i int) int { return int(in.cycle[i%fleetCyclePairs]) }

// trace returns pair i's trace ID: splitmix64 of the seed's key plus
// i, distinct for distinct i and never zero.
func (in *fleetInputs) trace(i int) uint64 {
	z := in.key + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// attacker returns attack a's client: a position from the spot table
// and a fresh MAC. The MAC is a bijective 47-bit hash of a, shifted
// above a set low bit, so no two attacks and no population client
// share one; its high bits, which pick the partition, are spread.
func (in *fleetInputs) attacker(a int) fleetClient {
	const m47 = 1<<47 - 1
	x := (uint64(a) ^ in.key) & m47
	x = x * 0xd6e8feb86659fd93 & m47
	x ^= x >> 23
	x = x * 0x9e3779b97f4a7c15 & m47
	x ^= x >> 24
	v := x<<1 | 1
	c := in.spots[a%fleetAttackSpots]
	for k := range c.mac {
		c.mac[k] = byte(v >> (8 * (5 - k)))
	}
	return c
}

// fleet is one running controller with its two agents.
type fleet struct {
	in    *fleetInputs
	c     *netproto.Controller
	lines *lineCounter
	dir   string
	ag    [2]*netproto.Agent
	dirs  [2]<-chan netproto.Directive
	sub   *netproto.Subscription
	// seq is each population client's last sequence number.
	seq     []uint64
	next    int // next stream index
	attacks int // attacks whose acks were sent
	// quarantined holds, per agent, the attackers whose quarantine it
	// received and whose release it has not; releases counts those
	// releases (the defense decays a quarantine about 90 s after its
	// alert).
	quarantined [2]map[wifi.Addr]bool
	releases    int
	timer       *time.Timer
	rs          [2][]netproto.Report
	want        map[wifi.Addr]uint64
}

var apNames = [2]string{"ap1", "ap2"}

// newFleet builds the controller as `secureangle serve -partitions 4
// -journal DIR` does, connects both agents and, with warm, sends one
// pair for every population client.
func newFleet(in *fleetInputs, dir string, warm bool) (*fleet, error) {
	_, shell := testbed.Building()
	c := netproto.NewController(&locate.Fence{Boundary: shell})
	c.Partitions = fleetPartitions
	lines := &lineCounter{}
	logger := ops.NewLogger(lines)
	logger.SetLevel(ops.LevelInfo)
	c.Logf = logger.Printf
	if err := c.WithJournalDir(dir, journal.Options{Fsync: journal.FsyncInterval, Logf: c.Logf}); err != nil {
		c.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Serve(ln)
	f := &fleet{
		in: in, c: c, lines: lines, dir: dir,
		seq:   make([]uint64, len(in.pop)),
		timer: time.NewTimer(time.Hour),
		want:  make(map[wifi.Addr]uint64, maxBatch),
	}
	f.timer.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for k, pos := range []geom.Point{testbed.AP1, testbed.AP2} {
		ag, err := netproto.DialContext(ctx, ln.Addr().String(), netproto.Hello{Name: apNames[k], Pos: pos})
		if err != nil {
			f.close()
			return nil, err
		}
		f.ag[k] = ag
		f.dirs[k] = ag.Directives()
		f.rs[k] = make([]netproto.Report, maxBatch)
		f.quarantined[k] = map[wifi.Addr]bool{}
	}
	f.sub = c.Subscribe(decisionBuffer)
	for i := 0; warm && i < len(in.pop); i += maxBatch {
		n := min(maxBatch, len(in.pop)-i)
		for j := 0; j < n; j++ {
			f.fill(j, &in.pop[i+j], f.nextSeq(i+j), in.trace(warmBase+i+j))
		}
		if err := f.exchange(n); err != nil {
			f.close()
			return nil, fmt.Errorf("warming population: %w", err)
		}
	}
	return f, nil
}

// close disconnects the agents, stops the controller and deletes its
// journal tree.
func (f *fleet) close() {
	f.shutdown()
	os.RemoveAll(f.dir)
}

// shutdown disconnects the agents and stops the controller, leaving
// the journal tree on disk.
func (f *fleet) shutdown() {
	for _, ag := range f.ag {
		if ag != nil {
			ag.Close()
		}
	}
	f.c.Close()
}

func (f *fleet) nextSeq(client int) uint64 {
	f.seq[client]++
	return f.seq[client]
}

// fill stages slot j of the next exchange: one report per agent.
func (f *fleet) fill(j int, c *fleetClient, seq, tr uint64) {
	f.rs[0][j] = netproto.Report{APName: apNames[0], MAC: c.mac, SeqNo: seq, BearingDeg: c.deg1, Trace: tr}
	f.rs[1][j] = netproto.Report{APName: apNames[1], MAC: c.mac, SeqNo: seq, BearingDeg: c.deg2, Trace: tr}
}

// errTimeout marks an op that waited opTimeout.
var errTimeout = errors.New("timed out")

// exchange sends the n staged pairs (one frame per report when n is 1,
// one ReportBatch frame per agent otherwise) and waits for all n
// decisions, each of which must match a pair sent and allow it.
func (f *fleet) exchange(n int) error {
	if err := f.send(n); err != nil {
		return err
	}
	return f.await(n)
}

func (f *fleet) send(n int) error {
	for k, ag := range f.ag {
		var err error
		if n == 1 {
			err = ag.Send(f.rs[k][0])
		} else {
			err = ag.SendBatch(f.rs[k][:n])
		}
		if err != nil {
			return fmt.Errorf("%s send: %w", apNames[k], err)
		}
	}
	return nil
}

func (f *fleet) await(n int) error {
	clear(f.want)
	for j := 0; j < n; j++ {
		f.want[f.rs[0][j].MAC] = f.rs[0][j].SeqNo
	}
	for ; n > 0; n-- {
		f.timer.Reset(opTimeout)
		select {
		case d, ok := <-f.sub.C:
			f.timer.Stop()
			if !ok {
				return errors.New("decision subscription closed")
			}
			seq, want := f.want[d.MAC]
			if !want || seq != d.SeqNo || d.Decision != locate.Allow {
				return fmt.Errorf("unexpected decision %s seq %d -> %s", d.MAC, d.SeqNo, d.Decision)
			}
			delete(f.want, d.MAC)
		case <-f.timer.C:
			return fmt.Errorf("decision: %w", errTimeout)
		}
	}
	return nil
}

// stage fills the next n pairs of the stream and returns the attacker
// among them, if any (n <= maxBatch < attackEvery, so at most one).
func (f *fleet) stage(n int) (atk fleetClient, tr uint64, ok bool) {
	for j := 0; j < n; j++ {
		i := f.next + j
		if isAttack(i) {
			atk, tr, ok = f.in.attacker(i/attackEvery), f.in.trace(i), true
			f.fill(j, &atk, 1, tr)
			continue
		}
		c := f.in.client(i)
		f.fill(j, &f.in.pop[c], f.nextSeq(c), f.in.trace(i))
	}
	f.next += n
	return atk, tr, ok
}

// attack flags atk with a spoof Alert from AP1, waits for the
// quarantine directive at both agents, and acks it from both. Releases
// of earlier attackers that arrive meanwhile are counted and passed
// over; any other directive fails the op. It first checks that the controller counted both acks of every earlier
// attack (the pairs exchanged since then were read after those acks on
// the same connections, so the count is exact here).
func (f *fleet) attack(atk *fleetClient, tr uint64) (time.Duration, error) {
	if got, want := f.c.Stats().DirectiveAcks, uint64(2*f.attacks); got != want {
		return 0, fmt.Errorf("controller counted %d directive acks, want %d", got, want)
	}
	t0 := time.Now()
	err := f.ag[0].SendAlertDetail(netproto.Alert{
		APName: apNames[0], MAC: atk.mac, Distance: 0.9, Threshold: 0.12,
		BearingDeg: atk.deg1, HasBearing: true, Stage: "spoofcheck", Trace: tr,
	})
	if err != nil {
		return 0, fmt.Errorf("alert: %w", err)
	}
	var got [2]netproto.Directive
	var have [2]bool
	take := func(k int, d netproto.Directive) error {
		if d.Action == defense.ActionAllow && f.quarantined[k][d.MAC] {
			delete(f.quarantined[k], d.MAC)
			f.releases++
			return nil
		}
		if d.MAC != atk.mac || d.Trace != tr || d.Action != defense.ActionQuarantine {
			return fmt.Errorf("%s got directive %s for %s trace %016x, want quarantine of %s trace %016x",
				apNames[k], d.Action, d.MAC, d.Trace, atk.mac, tr)
		}
		got[k], have[k] = d, true
		return nil
	}
	f.timer.Reset(opTimeout)
	for !have[0] || !have[1] {
		var err error
		select {
		case d := <-f.dirs[0]:
			err = take(0, d)
		case d := <-f.dirs[1]:
			err = take(1, d)
		case <-f.timer.C:
			return 0, fmt.Errorf("directive: %w", errTimeout)
		}
		if err != nil {
			f.timer.Stop()
			return 0, err
		}
	}
	f.timer.Stop()
	lat := time.Since(t0)
	for k, d := range got {
		f.quarantined[k][atk.mac] = true
		ack := d.Directive
		ack.Reporter = apNames[k]
		if err := f.ag[k].SendDirectiveAck(ack); err != nil {
			return 0, fmt.Errorf("%s ack: %w", apNames[k], err)
		}
	}
	f.attacks++
	return lat, nil
}

// awaitAcks waits until the controller has counted every ack sent.
func (f *fleet) awaitAcks() error {
	deadline := time.Now().Add(opTimeout)
	for f.c.Stats().DirectiveAcks != uint64(2*f.attacks) {
		if time.Now().After(deadline) {
			return fmt.Errorf("controller counted %d directive acks, want %d", f.c.Stats().DirectiveAcks, 2*f.attacks)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// fleetRegion is what one timed region measured.
type fleetRegion struct {
	ops, pairs int
	lat        latencies // one per op
	dirLat     latencies // one per attack
	// With spans, ops in even runs of maxBatch pairs also time the
	// agents' send calls: send is that time, over sendPairs pairs.
	// spanLat and spanOps split op latency by whether the op was so
	// timed (index 1) or not (index 0).
	send      time.Duration
	sendPairs int
	spanLat   [2]time.Duration
	spanOps   [2]int
	cpu, wall time.Duration
	rssMB     float64 // peak RSS once fleetRSSPairs pairs were sent
	err       error   // the op that failed, ending the region
}

// run drives ops of batch pairs for d, or until maxPairs pairs when
// maxPairs > 0. With spans, alternate runs of maxBatch pairs also time
// the agents' send calls, so that both kinds of op see the same host
// and the difference between them is the timing's own cost.
func (f *fleet) run(batch int, d time.Duration, maxPairs int, spans bool) *fleetRegion {
	reg := &fleetRegion{lat: make(latencies, 0, 1<<18)}
	c0, w0 := cpuTime(), time.Now()
	for time.Since(w0) < d && (maxPairs == 0 || reg.pairs < maxPairs) {
		timed := 0
		if spans && f.next/maxBatch%2 == 0 {
			timed = 1
		}
		atk, tr, attacked := f.stage(batch)
		reg.ops++
		t0 := time.Now()
		err := f.send(batch)
		if timed == 1 {
			reg.send += time.Since(t0)
			reg.sendPairs += batch
		}
		if err == nil {
			err = f.await(batch)
		}
		lat := time.Since(t0)
		reg.lat = append(reg.lat, lat)
		reg.spanLat[timed] += lat
		reg.spanOps[timed]++
		if err == nil && attacked {
			var dl time.Duration
			dl, err = f.attack(&atk, tr)
			reg.dirLat = append(reg.dirLat, dl)
		}
		if err != nil {
			reg.err = err
			break
		}
		reg.pairs += batch
		if reg.rssMB == 0 && reg.pairs >= fleetRSSPairs {
			reg.rssMB = peakRSSMB()
		}
	}
	reg.cpu, reg.wall = cpuTime()-c0, time.Since(w0)
	return reg
}

// fleetCounters is the controller-side state a traced region diffs.
type fleetCounters struct {
	in      instruments
	stats   netproto.ControllerStats
	journal journal.Stats
	frames  uint64
	lines   int64
	mallocs uint64
	gcs     uint32
}

func (f *fleet) counters() fleetCounters {
	fc := fleetCounters{in: snapshotInstruments(), stats: f.c.Stats(), lines: f.lines.n.Load()}
	if js := f.c.StatusReport().Journal; js != nil {
		fc.journal = *js
	}
	for _, h := range f.c.APHealth() {
		fc.frames += h.Frames
	}
	m := readMem()
	fc.mallocs, fc.gcs = m.Mallocs, m.NumGC
	return fc
}

func runFleet(cfg config, batch int) (*result, error) {
	printMeta(cfg)
	in := genFleetInputs(cfg.seed)
	n := 0
	f, setupS, err := timeSetups(func() (*fleet, error) {
		n++
		return newFleet(in, filepath.Join(cfg.work, fmt.Sprintf("journal-%d", n)), true)
	}, (*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	res := &result{}
	// account adds a region's ops to the result; a region ends at its
	// first failed op, which counts as failed.
	account := func(reg *fleetRegion) {
		res.Attempted += int64(reg.ops)
		if reg.err != nil {
			res.Failed++
			fmt.Printf("# %s failed op: %v\n", cfg.workload, reg.err)
		}
	}
	account(f.run(batch, time.Minute, fleetWarmPairs, false))

	// One timed region. A traced run reads the program's counters
	// around it and times the agents' send calls on alternate runs of
	// ops.
	settle()
	var before fleetCounters
	if cfg.trace {
		before = f.counters()
	}
	var reg *fleetRegion
	if res.Failed == 0 {
		reg = f.run(batch, cfg.seconds, 0, cfg.trace)
		account(reg)
	}
	if res.Failed == 0 {
		if err := f.awaitAcks(); err != nil {
			res.Failed++
			fmt.Printf("# %s: %v\n", cfg.workload, err)
		}
	}
	res.Correct = res.Failed == 0
	if reg == nil || reg.pairs == 0 {
		return res, fmt.Errorf("no op completed")
	}
	if reg.rssMB == 0 {
		return res, fmt.Errorf("timed region sent %d pairs, fewer than the %d peak_rss_mb is read at", reg.pairs, fleetRSSPairs)
	}
	p50, p90, p99, mean := reg.lat.summary()
	dp50, _, dp99, _ := reg.dirLat.summary()
	pairs := float64(reg.pairs)
	fmt.Printf("# %s samples=%d pairs=%d attacks=%d releases=%d p50_us=%.2f mean_us=%.2f p99_us=%.2f directive_p50_us=%.2f directive_p99_us=%.2f pairs_per_s=%.0f\n",
		cfg.workload, len(reg.lat), reg.pairs, len(reg.dirLat), f.releases, p50, mean, p99, dp50, dp99, pairs/reg.wall.Seconds())
	if !cfg.trace {
		res.set("setup_s", setupS, "s")
		res.set("mean_us", mean, "us")
		res.set("cpu_us_per_op", float64(reg.cpu)/1e3/pairs, "us")
		res.set("peak_rss_mb", reg.rssMB, "MB")
		return res, nil
	}

	after := f.counters()
	attacks := float64(len(reg.dirLat))
	lay, err := replayFleet(in, batch, filepath.Join(cfg.work, "replay"))
	if err != nil {
		return nil, err
	}
	m := layerMetrics{}
	for k, v := range lay {
		m[k] = v
	}
	dStats := func(get func(s netproto.ControllerStats) uint64) float64 {
		return float64(get(after.stats) - get(before.stats))
	}
	records := float64(after.journal.Appends - before.journal.Appends)
	m["netproto.frames_per_pair"] = float64(after.frames-before.frames) / pairs
	m["go.allocs_per_pair"] = float64(after.mallocs-before.mallocs) / pairs
	m["agent.send_us_per_pair"] = float64(reg.send) / 1e3 / float64(reg.sendPairs)
	m["journal.records_per_fsync"] = perOp(records, float64(after.journal.Fsyncs-before.journal.Fsyncs))
	m["journal.records_per_pair"] = records / pairs
	m["journal.bytes_per_pair"] = float64(after.journal.AppendedBytes-before.journal.AppendedBytes) / pairs
	m["fusion.decisions_per_pair"] = dStats(func(s netproto.ControllerStats) uint64 { return s.Decisions }) / pairs
	m["fusion.dup_dropped"] = dStats(func(s netproto.ControllerStats) uint64 { return s.DupDropped })
	m["fusion.pending_expired"] = dStats(func(s netproto.ControllerStats) uint64 { return s.PendingExpired })
	m["ops.log_lines_per_pair"] = float64(after.lines-before.lines) / pairs
	m["trace.spans_per_pair"] = after.in.delta(before.in, "secureangle_trace_spans_total{}") / pairs
	m["trace.retained"] = after.in.sumDelta(before.in, "secureangle_trace_retained_total{")
	m["defense.directives_per_attack"] = perOp(dStats(func(s netproto.ControllerStats) uint64 { return s.Defense.Directives }), attacks)
	m["controller.directive_ack_us"] = after.in.histMeanUS(before.in, "secureangle_controller_directive_ack_seconds{}")
	m["directive_p50_us"] = dp50
	// The agents' send calls (encode and write), then the controller
	// layers a pair passes through once per report (decode, partition
	// ingest) or once per journal record. What the mean op time holds
	// beyond them is the controller's reads, loopback transfer, wake-ups
	// and the unreplayed fan-out (logging, spans, subscribers).
	layerNS := 2*(lay["netproto.decode_ns_per_report"]+lay["partition.ingest_ns_per_report"]) +
		m["journal.records_per_pair"]*(lay["journal.encode_ns_per_record"]+lay["journal.append_ns_per_record"])
	m["wire_residual_us"] = mean/float64(batch) - m["agent.send_us_per_pair"] - layerNS/1e3
	m["e2e.p50_us"] = p50
	m["e2e.p90_us"] = p90
	m["e2e.p99_us"] = p99
	m["e2e.ops_per_s"] = float64(reg.ops) / reg.wall.Seconds()
	m["e2e.pairs_per_s"] = pairs / reg.wall.Seconds()
	m["e2e.directive_p99_us"] = dp99
	m["e2e.samples"] = float64(len(reg.lat))
	m["e2e.attacks"] = attacks
	m["go.gc_cycles"] = float64(after.gcs - before.gcs)
	// Mean op latency with the send calls timed minus without, over
	// interleaved runs of ops.
	m["tracing_overhead_us"] = (float64(reg.spanLat[1])/float64(reg.spanOps[1]) -
		float64(reg.spanLat[0])/float64(reg.spanOps[0])) / 1e3
	m.fill(res)
	return res, nil
}

// replayPairs is how many pairs of the stream each layer replay runs,
// and replaySpoofs how many spoof verdicts the defense replay times.
const (
	replayPairs  = 1 << 15
	replaySpoofs = 512
)

// replayFleet times, one public function at a time, each layer a pair
// crosses inside the controller, on the first replayPairs pairs of the
// same stream: report encode and decode, partition ingest, journal
// event encode and append, and the defense engine's spoof verdict.
// Batch 64 uses the batch form of each layer, as the controller does.
func replayFleet(in *fleetInputs, batch int, dir string) (map[string]float64, error) {
	out := map[string]float64{}
	n := replayPairs
	// The pairs, as both agents send them.
	var rs [2][]netproto.Report
	seq := make([]uint64, len(in.pop))
	for i := 0; i < n; i++ {
		var c fleetClient
		s := uint64(1)
		if isAttack(i) {
			c = in.attacker(i / attackEvery)
		} else {
			p := in.client(i)
			seq[p]++
			c, s = in.pop[p], seq[p]+1 // seq 1 went to the warm-up
		}
		tr := in.trace(i)
		rs[0] = append(rs[0], netproto.Report{APName: apNames[0], MAC: c.mac, SeqNo: s, BearingDeg: c.deg1, Trace: tr})
		rs[1] = append(rs[1], netproto.Report{APName: apNames[1], MAC: c.mac, SeqNo: s, BearingDeg: c.deg2, Trace: tr})
	}

	// netproto: frame encode and decode.
	var bodies [][]byte
	t0 := time.Now()
	for i := 0; i < n; i += batch {
		for k := range rs {
			if batch == 1 {
				bodies = append(bodies, netproto.MarshalReport(rs[k][i]))
			} else {
				bodies = append(bodies, netproto.MarshalReportBatch(rs[k][i:i+batch]))
			}
		}
	}
	out["netproto.encode_ns_per_report"] = float64(time.Since(t0)) / float64(2*n)
	wire := 0
	for _, b := range bodies {
		wire += 4 + len(b)
	}
	t0 = time.Now()
	for _, b := range bodies {
		msg, err := netproto.Unmarshal(b)
		if err != nil {
			return nil, err
		}
		switch m := msg.(type) {
		case netproto.Report:
		case netproto.ReportBatch:
			if len(m) != batch {
				return nil, fmt.Errorf("decoded batch of %d, want %d", len(m), batch)
			}
		default:
			return nil, fmt.Errorf("decoded %T", msg)
		}
	}
	out["netproto.decode_ns_per_report"] = float64(time.Since(t0)) / float64(2*n)
	// Attack frames: the alert, a directive to each agent, two acks.
	atk0 := in.attacker(0)
	dir0 := netproto.Directive{Directive: defense.Directive{MAC: atk0.mac, Action: defense.ActionQuarantine, Trace: 1}}
	ack := dir0
	ack.Ack, ack.Reporter = true, apNames[0]
	attackBytes := 4 + len(netproto.MarshalAlert(netproto.Alert{APName: apNames[0], MAC: atk0.mac,
		Distance: 0.9, Threshold: 0.12, HasBearing: true, Stage: "spoofcheck", Trace: 1}))
	attackBytes += 2 * (8 + len(netproto.MarshalDirective(dir0)) + len(netproto.MarshalDirective(ack)))
	out["netproto.wire_bytes_per_pair"] = float64(wire)/float64(n) + float64(attackBytes)/attackEvery

	// partition: a 4-partition engine set with the controller's fence,
	// warmed with the population like the controller.
	_, shell := testbed.Building()
	decisions, directives := 0, 0
	set, err := partition.New(fleetPartitions, func(int) fusion.Config {
		return fusion.Config{
			Fence:   &locate.Fence{Boundary: shell},
			APCount: func() int { return 2 },
			Emit:    func(fusion.Decision) { decisions++ },
		}
	}, func(int) defense.Config {
		return defense.Config{Emit: func(defense.Directive) { directives++ }}
	})
	if err != nil {
		return nil, err
	}
	defer set.Close()
	bearing := func(r *netproto.Report, pos geom.Point) fusion.Bearing {
		return fusion.Bearing{AP: r.APName, APPos: pos, MAC: r.MAC, Seq: r.SeqNo, Deg: r.BearingDeg, Trace: r.Trace}
	}
	apPos := [2]geom.Point{testbed.AP1, testbed.AP2}
	for i := range in.pop {
		c := &in.pop[i]
		set.Ingest(fusion.Bearing{AP: apNames[0], APPos: apPos[0], MAC: c.mac, Seq: 1, Deg: c.deg1})
		set.Ingest(fusion.Bearing{AP: apNames[1], APPos: apPos[1], MAC: c.mac, Seq: 1, Deg: c.deg2})
	}
	decisions = 0
	var bs [2][]fusion.Bearing
	for k := range rs {
		for i := range rs[k] {
			bs[k] = append(bs[k], bearing(&rs[k][i], apPos[k]))
		}
	}
	emit := func(int, fusion.Decision, fusion.TrackState, bool) { decisions++ }
	t0 = time.Now()
	for i := 0; i < n; i += batch {
		for k := range bs {
			if batch == 1 {
				set.Ingest(bs[k][i])
			} else {
				set.IngestBatch(bs[k][i:i+batch], emit)
			}
		}
	}
	out["partition.ingest_ns_per_report"] = float64(time.Since(t0)) / float64(2*n)
	if decisions != n {
		return nil, fmt.Errorf("partition replay fused %d decisions for %d pairs", decisions, n)
	}

	// journal: event encode, then append with the serve options.
	recs := make([]journal.Record, 0, 3*n)
	var arena []byte
	t0 = time.Now()
	for i := 0; i < n; i++ {
		for k := range rs {
			r := &rs[k][i]
			ev := journal.ReportEvent{AP: r.APName, APPos: apPos[k], MAC: r.MAC, Seq: r.SeqNo, BearingDeg: r.BearingDeg, Trace: r.Trace}
			var data []byte
			if batch == 1 {
				data = journal.EncodeReport(ev)
			} else {
				start := len(arena)
				arena = journal.AppendReport(arena, ev)
				data = arena[start:len(arena):len(arena)]
			}
			recs = append(recs, journal.Record{Type: journal.RecReport, Data: data})
		}
		d := fusion.Decision{MAC: rs[0][i].MAC, Seq: rs[0][i].SeqNo, Decision: locate.Allow, APs: apNames[:], Trace: rs[0][i].Trace}
		recs = append(recs, journal.Record{Type: journal.RecDecision, Data: journal.EncodeDecision(d)})
	}
	out["journal.encode_ns_per_record"] = float64(time.Since(t0)) / float64(len(recs))
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncInterval})
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	for i := 0; i < n; i += batch {
		var err error
		if batch == 1 {
			for _, r := range recs[3*i : 3*i+3] {
				if _, err = j.Append(r); err != nil {
					break
				}
			}
		} else {
			// The controller group-commits a batch's reports and
			// appends each decision as it fuses.
			group := make([]journal.Record, 0, 2*batch)
			for p := i; p < i+batch; p++ {
				group = append(group, recs[3*p], recs[3*p+1])
			}
			if _, err = j.AppendBatch(group); err == nil {
				for p := i; p < i+batch && err == nil; p++ {
					_, err = j.Append(recs[3*p+2])
				}
			}
		}
		if err != nil {
			j.Close()
			return nil, err
		}
	}
	out["journal.append_ns_per_record"] = float64(time.Since(t0)) / float64(len(recs))
	if err := j.Close(); err != nil {
		return nil, err
	}
	os.RemoveAll(dir)

	// defense: spoof verdicts for MACs past every attack the replayed
	// pairs hold.
	verdicts := make([]defense.SpoofVerdict, replaySpoofs)
	for i := range verdicts {
		a := in.attacker(n + i)
		verdicts[i] = defense.SpoofVerdict{AP: apNames[0], MAC: a.mac, Flagged: true, Distance: 0.9, Threshold: 0.12,
			BearingDeg: a.deg1, HasBearing: true, Stage: "spoofcheck", Trace: uint64(i + 1)}
	}
	na := len(verdicts)
	t0 = time.Now()
	for _, v := range verdicts {
		set.ReportSpoof(v)
	}
	out["defense.spoof_ns"] = float64(time.Since(t0)) / float64(na)
	if directives != na {
		return nil, fmt.Errorf("defense replay emitted %d directives for %d spoof verdicts", directives, na)
	}
	return out, nil
}
