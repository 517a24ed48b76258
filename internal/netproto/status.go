package netproto

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/journal"
	"secureangle/internal/ops"
	"secureangle/internal/wifi"
)

// The controller's operations surface: live per-AP session health, a
// structured JSON status document at /status, Prometheus text
// exposition at /metrics, and the enrollment admin endpoint at
// /enroll. Everything here reads the same engine Stats()/Snapshot()
// accessors the close-time log always used — the satellite fix is that
// they are now continuously scrapeable instead of visible once, at
// shutdown.

// Session-path instruments (package-level: zero-alloc on the frame
// paths, shared by every controller in the process).
var (
	mAuthRejects = ops.Default().Counter("secureangle_controller_auth_rejects_total",
		"Sessions rejected at the handshake for a missing, unknown, or revoked token.")
	mDirAckSeconds = ops.Default().Histogram("secureangle_controller_directive_ack_seconds",
		"Latency from directive broadcast to the first AP acknowledgement for that MAC.",
		ops.DurationBuckets())
)

// apHealth is one session's live health, updated lock-free by the
// session's read loop and snapshotted by APHealth()/collectors.
type apHealth struct {
	name      string
	observer  bool
	version   uint16
	connected time.Time
	lastSeen  atomic.Int64 // unix nanos of the last inbound frame
	frames    atomic.Uint64
	reports   atomic.Uint64
	acks      atomic.Uint64
	lastAckNs atomic.Int64 // latency of the latest ack (0 = none yet)
	queue     func() int   // send-queue depth (set by startBroadcaster)
}

func newAPHealth(name string, observer bool, version uint16) *apHealth {
	h := &apHealth{name: name, observer: observer, version: version, connected: time.Now()}
	h.lastSeen.Store(h.connected.UnixNano())
	return h
}

// APHealth is one connected session's health snapshot.
type APHealth struct {
	Name string `json:"name"`
	// Observer marks a broadcast/query-only session (empty Hello name).
	Observer bool `json:"observer,omitempty"`
	// Version is the negotiated protocol version.
	Version     uint16    `json:"version"`
	ConnectedAt time.Time `json:"connected_at"`
	LastSeen    time.Time `json:"last_seen"`
	// QueueDepth is the outbound broadcast queue's current backlog.
	QueueDepth int `json:"queue_depth"`
	// Frames counts inbound frames; Reports bearing reports (batch
	// members counted individually); Acks applied-countermeasure
	// acknowledgements.
	Frames  uint64 `json:"frames"`
	Reports uint64 `json:"reports"`
	Acks    uint64 `json:"acks"`
	// AckLatency is the latency of the latest directive ack (zero
	// until the session acks one).
	AckLatency time.Duration `json:"ack_latency_ns,omitempty"`
}

// APHealth snapshots every connected session, sorted by name.
func (c *Controller) APHealth() []APHealth {
	c.quar.mu.Lock()
	hs := make([]*apHealth, 0, len(c.quar.conns))
	depths := make([]int, 0, len(c.quar.conns))
	for _, ac := range c.quar.conns {
		if ac.health == nil {
			continue
		}
		hs = append(hs, ac.health)
		depths = append(depths, len(ac.ch))
	}
	c.quar.mu.Unlock()
	out := make([]APHealth, len(hs))
	for i, h := range hs {
		out[i] = APHealth{
			Name:        h.name,
			Observer:    h.observer,
			Version:     h.version,
			ConnectedAt: h.connected,
			LastSeen:    time.Unix(0, h.lastSeen.Load()),
			QueueDepth:  depths[i],
			Frames:      h.frames.Load(),
			Reports:     h.reports.Load(),
			Acks:        h.acks.Load(),
			AckLatency:  time.Duration(h.lastAckNs.Load()),
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// noteDirectiveSent timestamps a directive broadcast so the matching
// ack yields a latency sample. The map holds one entry per MAC with a
// live directive and is bounded: past 4096 entries (far above any real
// quarantine set, which the defense engine itself caps) new sends
// evict an arbitrary old entry.
func (c *Controller) noteDirectiveSent(mac wifi.Addr) {
	now := time.Now()
	c.mu.Lock()
	if c.dirSent == nil {
		c.dirSent = make(map[wifi.Addr]time.Time)
	}
	if _, ok := c.dirSent[mac]; !ok && len(c.dirSent) >= 4096 {
		for k := range c.dirSent {
			delete(c.dirSent, k)
			break
		}
	}
	c.dirSent[mac] = now
	c.mu.Unlock()
}

// noteDirectiveAck records one applied-countermeasure ack: the global
// latency histogram plus the acking session's health counters. The
// sent timestamp is kept (not consumed) because every AP in the fleet
// acks the same broadcast.
func (c *Controller) noteDirectiveAck(mac wifi.Addr, apName string) {
	c.mu.Lock()
	sent, ok := c.dirSent[mac]
	c.mu.Unlock()
	var lat time.Duration
	if ok {
		lat = time.Since(sent)
		mDirAckSeconds.Observe(lat.Seconds())
	}
	c.quar.mu.Lock()
	ac, live := c.quar.conns[apName]
	c.quar.mu.Unlock()
	if live && ac.health != nil {
		ac.health.acks.Add(1)
		if ok {
			ac.health.lastAckNs.Store(int64(lat))
		}
	}
}

// ThreatStatus is one live threat-table row in the /status document.
type ThreatStatus struct {
	MAC    string  `json:"mac"`
	State  string  `json:"state"`
	Action string  `json:"action"`
	Score  float64 `json:"score"`
	// LastAP is the most recent flagging AP.
	LastAP  string    `json:"last_ap,omitempty"`
	Since   time.Time `json:"since"`
	Updated time.Time `json:"updated"`
}

// FusionStatus is the fusion section of the /status document.
type FusionStatus struct {
	fusion.Stats
	// Clients and Pending are the live bounded-memory gauges.
	Clients int `json:"clients"`
	Pending int `json:"pending"`
	// Shards carries per-shard counters, for spotting MAC-range skew.
	Shards []fusion.Stats `json:"shards,omitempty"`
}

// DefenseStatus is the defense section of the /status document.
type DefenseStatus struct {
	defense.Stats
	// Allow/Monitor/Quarantine count live clients by threat state.
	Allow      int `json:"allow"`
	Monitor    int `json:"monitor"`
	Quarantine int `json:"quarantine"`
}

// Status is the controller's structured status document, served as
// JSON at /status and rendered by `secureangle status`.
type Status struct {
	Time time.Time `json:"time"`
	// Proto is the highest protocol version this controller speaks.
	Proto        uint16 `json:"proto_version"`
	AuthRequired bool   `json:"auth_required"`
	// Partitions is the MAC-range partition count of the engine core.
	Partitions int `json:"partitions"`
	// Enrolled lists AP names with minted tokens.
	Enrolled []string      `json:"enrolled,omitempty"`
	Fusion   FusionStatus  `json:"fusion"`
	Defense  DefenseStatus `json:"defense"`
	// UnknownAPDrops / DirectiveAcks are the controller's own ingress
	// counters (see ControllerStats).
	UnknownAPDrops uint64 `json:"unknown_ap_drops"`
	DirectiveAcks  uint64 `json:"directive_acks"`
	// Journal is nil when no flight recorder is attached; on a
	// partitioned controller it aggregates the per-partition journals
	// (counters summed, LSN the max, SnapshotLSN the min — the
	// conservative recovery bound) and JournalPartitions carries the
	// per-partition breakdown.
	Journal           *journal.Stats  `json:"journal,omitempty"`
	JournalPartitions []journal.Stats `json:"journal_partitions,omitempty"`
	// Replication lists journal-stream subscribers (warm standbys) and
	// their per-partition lag, as this leader sees them.
	Replication []ReplicaStatus `json:"replication,omitempty"`
	APs         []APHealth      `json:"aps"`
	Threats     []ThreatStatus  `json:"threats"`
}

// StatusReport assembles the live status document. Like Stats it never
// builds the lazy engines: before the first report the fusion/defense
// sections read zero.
func (c *Controller) StatusReport() Status {
	st := Status{
		Time:           time.Now(),
		Proto:          ProtoVersion,
		AuthRequired:   c.RequireAuth,
		Partitions:     c.nParts(),
		Enrolled:       c.EnrolledAPs(),
		UnknownAPDrops: c.unknownAP.Load(),
		DirectiveAcks:  c.directiveAcks.Load(),
		APs:            c.APHealth(),
		Threats:        []ThreatStatus{},
	}
	if set := c.partsLoaded(); set != nil {
		st.Fusion = FusionStatus{
			Stats:   set.Stats(),
			Clients: set.ClientCount(),
			Pending: set.PendingCount(),
		}
		if set.N() == 1 {
			// Single partition: the per-shard breakdown is the engine's
			// own lock stripes, byte-compatible with the PR 7 document.
			st.Fusion.Shards = set.At(0).Fusion.ShardStats()
		} else {
			// Partitioned: the breakdown is per MAC-range partition.
			st.Fusion.Shards = set.PartitionStats()
		}
		st.Defense.Stats = set.DefenseStats()
		st.Defense.Allow, st.Defense.Monitor, st.Defense.Quarantine = set.StateCounts()
		for _, th := range set.Threats() {
			if th.State == defense.StateAllow {
				continue // the threat table shows live suspicion, not history
			}
			st.Threats = append(st.Threats, ThreatStatus{
				MAC:     th.MAC.String(),
				State:   th.State.String(),
				Action:  th.Action.String(),
				Score:   th.Score,
				LastAP:  th.LastAP,
				Since:   th.Since,
				Updated: th.Updated,
			})
		}
		sort.Slice(st.Threats, func(i, j int) bool { return st.Threats[i].Score > st.Threats[j].Score })
	}
	if js := c.journals(); js != nil {
		agg, per := aggregateJournalStats(js)
		st.Journal = &agg
		if len(per) > 1 {
			st.JournalPartitions = per
		}
	}
	if rs := c.ReplicationStatus(); len(rs) > 0 {
		st.Replication = rs
	}
	return st
}

// aggregateJournalStats folds the per-partition journal stats into one
// document-level view (sums for counters; max LSN; min SnapshotLSN —
// the partition furthest behind bounds recovery; latest SnapshotAt)
// plus the per-partition slice. A single journal passes through
// unchanged.
func aggregateJournalStats(js []*journal.Journal) (journal.Stats, []journal.Stats) {
	per := make([]journal.Stats, len(js))
	for i, j := range js {
		per[i] = j.Stats()
	}
	if len(per) == 1 {
		return per[0], per
	}
	var agg journal.Stats
	for i, s := range per {
		agg.Appends += s.Appends
		agg.AppendedBytes += s.AppendedBytes
		agg.Fsyncs += s.Fsyncs
		agg.Rotations += s.Rotations
		agg.Segments += s.Segments
		if s.LSN > agg.LSN {
			agg.LSN = s.LSN
		}
		if i == 0 || s.SnapshotLSN < agg.SnapshotLSN {
			agg.SnapshotLSN = s.SnapshotLSN
		}
		if s.SnapshotAt.After(agg.SnapshotAt) {
			agg.SnapshotAt = s.SnapshotAt
		}
	}
	return agg, per
}

// RegisterOps installs the controller's scrape-time collector families
// on reg: fusion/defense/journal counters, live gauges, and the per-AP
// health table. Called by ServeOps with the default registry;
// re-registering (another controller, a test) replaces the closures,
// so the families always reflect the latest registrant.
func (c *Controller) RegisterOps(reg *ops.Registry) {
	reg.RegisterCollector("secureangle_fusion_events_total",
		"Fusion engine counters by kind.", ops.KindCounter,
		func(emit func(string, float64)) {
			s := c.Stats()
			emit(`kind="ingested"`, float64(s.Ingested))
			emit(`kind="decisions"`, float64(s.Decisions))
			emit(`kind="dup_dropped"`, float64(s.DupDropped))
			emit(`kind="pending_expired"`, float64(s.PendingExpired))
			emit(`kind="pending_evicted"`, float64(s.PendingEvicted))
			emit(`kind="clients_evicted"`, float64(s.ClientsEvicted))
			emit(`kind="forced_timeouts"`, float64(s.ForcedTimeouts))
			emit(`kind="fuse_errors"`, float64(s.FuseErrors))
		})
	reg.RegisterCollector("secureangle_fusion_shard_events_total",
		"Per-shard fusion counters, for spotting MAC-range skew.", ops.KindCounter,
		func(emit func(string, float64)) {
			set := c.partsLoaded()
			if set == nil || set.N() != 1 {
				return // partitioned cores report per-partition instead
			}
			for i, s := range set.At(0).Fusion.ShardStats() {
				emit(fmt.Sprintf(`shard="%d",kind="ingested"`, i), float64(s.Ingested))
				emit(fmt.Sprintf(`shard="%d",kind="decisions"`, i), float64(s.Decisions))
				emit(fmt.Sprintf(`shard="%d",kind="evicted"`, i), float64(s.PendingEvicted+s.ClientsEvicted))
			}
		})
	reg.RegisterCollector("secureangle_partition_events_total",
		"Per-partition fusion counters, for spotting MAC-range skew across the sharded engine set.", ops.KindCounter,
		func(emit func(string, float64)) {
			set := c.partsLoaded()
			if set == nil {
				return
			}
			for i, s := range set.PartitionStats() {
				emit(fmt.Sprintf(`partition="%d",kind="ingested"`, i), float64(s.Ingested))
				emit(fmt.Sprintf(`partition="%d",kind="decisions"`, i), float64(s.Decisions))
				emit(fmt.Sprintf(`partition="%d",kind="evicted"`, i), float64(s.PendingEvicted+s.ClientsEvicted))
			}
		})
	reg.RegisterCollector("secureangle_fusion_clients",
		"Live tracked clients in the fusion engine.", ops.KindGauge,
		func(emit func(string, float64)) {
			if set := c.partsLoaded(); set != nil {
				emit("", float64(set.ClientCount()))
			}
		})
	reg.RegisterCollector("secureangle_fusion_pending",
		"In-flight transmissions awaiting corroborating bearings.", ops.KindGauge,
		func(emit func(string, float64)) {
			if set := c.partsLoaded(); set != nil {
				emit("", float64(set.PendingCount()))
			}
		})
	reg.RegisterCollector("secureangle_defense_events_total",
		"Defense engine counters by kind.", ops.KindCounter,
		func(emit func(string, float64)) {
			d := c.Stats().Defense
			emit(`kind="spoof_verdicts"`, float64(d.SpoofVerdicts))
			emit(`kind="fence_verdicts"`, float64(d.FenceVerdicts))
			emit(`kind="track_verdicts"`, float64(d.TrackVerdicts))
			emit(`kind="quarantines"`, float64(d.Quarantines))
			emit(`kind="null_steers"`, float64(d.NullSteers))
			emit(`kind="releases"`, float64(d.Releases))
			emit(`kind="directives"`, float64(d.Directives))
		})
	reg.RegisterCollector("secureangle_defense_clients",
		"Live clients by threat state.", ops.KindGauge,
		func(emit func(string, float64)) {
			set := c.partsLoaded()
			if set == nil {
				return
			}
			allow, monitor, quarantine := set.StateCounts()
			emit(`state="allow"`, float64(allow))
			emit(`state="monitor"`, float64(monitor))
			emit(`state="quarantine"`, float64(quarantine))
		})
	reg.RegisterCollector("secureangle_controller_unknown_ap_drops_total",
		"Reports dropped because the AP never sent a Hello.", ops.KindCounter,
		func(emit func(string, float64)) { emit("", float64(c.unknownAP.Load())) })
	reg.RegisterCollector("secureangle_controller_decisions_dropped_total",
		"Fence-decision deliveries dropped because the Decisions() channel or a subscriber was full.", ops.KindCounter,
		func(emit func(string, float64)) { emit("", float64(c.decisionsDropped.Load())) })
	reg.RegisterCollector("secureangle_controller_directive_acks_total",
		"Applied-countermeasure acknowledgements from APs.", ops.KindCounter,
		func(emit func(string, float64)) { emit("", float64(c.directiveAcks.Load())) })
	reg.RegisterCollector("secureangle_controller_sessions",
		"Connected sessions (APs and observers).", ops.KindGauge,
		func(emit func(string, float64)) {
			c.quar.mu.Lock()
			n := len(c.quar.conns)
			c.quar.mu.Unlock()
			emit("", float64(n))
		})
	// Journal families: a single-partition controller keeps the PR 5–7
	// unlabeled series; a partitioned one labels each row with its
	// partition index.
	journalEmit := func(emit func(string, float64), v func(journal.Stats) float64) {
		js := c.journals()
		if js == nil {
			return
		}
		if len(js) == 1 {
			emit("", v(js[0].Stats()))
			return
		}
		for i, j := range js {
			emit(fmt.Sprintf(`partition="%d"`, i), v(j.Stats()))
		}
	}
	reg.RegisterCollector("secureangle_journal_appends_total",
		"Records appended to the flight recorder.", ops.KindCounter,
		func(emit func(string, float64)) {
			journalEmit(emit, func(s journal.Stats) float64 { return float64(s.Appends) })
		})
	reg.RegisterCollector("secureangle_journal_fsyncs_total",
		"fdatasync calls issued by the flight recorder.", ops.KindCounter,
		func(emit func(string, float64)) {
			journalEmit(emit, func(s journal.Stats) float64 { return float64(s.Fsyncs) })
		})
	reg.RegisterCollector("secureangle_journal_lsn",
		"Last assigned journal record number.", ops.KindGauge,
		func(emit func(string, float64)) {
			journalEmit(emit, func(s journal.Stats) float64 { return float64(s.LSN) })
		})
	reg.RegisterCollector("secureangle_journal_segments",
		"WAL segment files on disk.", ops.KindGauge,
		func(emit func(string, float64)) {
			journalEmit(emit, func(s journal.Stats) float64 { return float64(s.Segments) })
		})
	reg.RegisterCollector("secureangle_journal_snapshot_age_seconds",
		"Seconds since the newest snapshot completed (-1: none this run).", ops.KindGauge,
		func(emit func(string, float64)) {
			journalEmit(emit, func(s journal.Stats) float64 {
				if s.SnapshotAt.IsZero() {
					return -1
				}
				return time.Since(s.SnapshotAt).Seconds()
			})
		})
	reg.RegisterCollector("secureangle_journal_replication_lag",
		"Journal records the leader has durably assigned but each replica has not yet acknowledged, per partition.", ops.KindGauge,
		func(emit func(string, float64)) {
			for _, rs := range c.ReplicationStatus() {
				for _, p := range rs.Partitions {
					emit(fmt.Sprintf(`replica=%q,partition="%d"`, rs.Name, p.Partition), float64(p.Lag))
				}
			}
		})
	reg.RegisterCollector("secureangle_ap_last_seen_seconds",
		"Seconds since each session's last inbound frame.", ops.KindGauge,
		func(emit func(string, float64)) {
			for _, h := range c.APHealth() {
				emit(fmt.Sprintf("ap=%q", h.Name), time.Since(h.LastSeen).Seconds())
			}
		})
	reg.RegisterCollector("secureangle_ap_send_queue",
		"Outbound broadcast queue depth per session.", ops.KindGauge,
		func(emit func(string, float64)) {
			for _, h := range c.APHealth() {
				emit(fmt.Sprintf("ap=%q", h.Name), float64(h.QueueDepth))
			}
		})
	reg.RegisterCollector("secureangle_ap_reports_total",
		"Bearing reports ingested per session.", ops.KindCounter,
		func(emit func(string, float64)) {
			for _, h := range c.APHealth() {
				emit(fmt.Sprintf("ap=%q", h.Name), float64(h.Reports))
			}
		})
	reg.RegisterCollector("secureangle_ap_version",
		"Negotiated protocol version per session.", ops.KindGauge,
		func(emit func(string, float64)) {
			for _, h := range c.APHealth() {
				emit(fmt.Sprintf("ap=%q", h.Name), float64(h.Version))
			}
		})
}

// TraceSpanView is one span of a retained trace in the /traces
// document.
type TraceSpanView struct {
	Stage string `json:"stage"`
	AP    string `json:"ap,omitempty"`
	MAC   string `json:"mac,omitempty"`
	// Partition is the controller partition the span was recorded
	// under (AP-side spans carry 0).
	Partition uint16 `json:"partition"`
	StartNs   int64  `json:"start_ns"`
	DurNs     int64  `json:"dur_ns"`
}

// TraceView is one retained trace in the /traces document.
type TraceView struct {
	// Trace is the 16-hex-digit trace ID — the join key against
	// journal timelines and trace= log fields.
	Trace string `json:"trace"`
	// Why is the retention reason ("incident" or "sampled").
	Why        string          `json:"why"`
	StartNs    int64           `json:"start_ns"`
	DurationNs int64           `json:"duration_ns"`
	Spans      []TraceSpanView `json:"spans"`
}

// TraceExemplar links one latency-histogram series to a concrete
// recent trace — the pivot from "p99 moved" to one retained timeline.
type TraceExemplar struct {
	Metric string `json:"metric"`
	Labels string `json:"labels,omitempty"`
	Trace  string `json:"trace"`
}

// TracesDocument is the /traces response body.
type TracesDocument struct {
	Retained  int             `json:"retained"`
	Traces    []TraceView     `json:"traces"`
	Exemplars []TraceExemplar `json:"exemplars,omitempty"`
}

// tracesDocument assembles the /traces body: the tail-sampled retained
// store (newest first, capped at max, optionally filtered to one trace
// ID) plus the current histogram exemplars.
func (c *Controller) tracesDocument(max int, filter uint64) TracesDocument {
	rec := c.tracer()
	doc := TracesDocument{Retained: rec.RetainedCount(), Traces: []TraceView{}}
	for _, v := range rec.Snapshot(max) {
		if filter != 0 && v.Trace != filter {
			continue
		}
		tv := TraceView{
			Trace:      fmt.Sprintf("%016x", v.Trace),
			Why:        v.Why.String(),
			StartNs:    v.StartNs,
			DurationNs: v.EndNs - v.StartNs,
			Spans:      make([]TraceSpanView, 0, len(v.Spans)),
		}
		for _, sp := range v.Spans {
			sv := TraceSpanView{
				Stage:     sp.Stage.String(),
				AP:        sp.AP,
				Partition: sp.Partition,
				StartNs:   sp.Start,
				DurNs:     sp.Dur,
			}
			if sp.MAC != (wifi.Addr{}) {
				sv.MAC = sp.MAC.String()
			}
			tv.Spans = append(tv.Spans, sv)
		}
		doc.Traces = append(doc.Traces, tv)
	}
	ops.Default().Walk(func(s ops.Sample) {
		if s.Kind == ops.KindHistogram && s.Exemplar != 0 {
			doc.Exemplars = append(doc.Exemplars, TraceExemplar{
				Metric: s.Name, Labels: s.Labels,
				Trace: fmt.Sprintf("%016x", s.Exemplar),
			})
		}
	})
	return doc
}

// readOnlyJSON gates a handler to GET/HEAD and stamps the JSON
// content type; anything else is a 405 with the Allow header set.
func readOnlyJSON(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		h(w, r)
	}
}

// OpsHandler returns the controller's operations HTTP handler:
//
//	GET  /metrics          Prometheus text exposition (default registry)
//	GET  /status           the Status document as JSON
//	GET  /traces           retained decision traces + histogram exemplars
//	                       (?n=50 caps the list, ?trace=<hex id> filters)
//	GET  /enroll           enrolled AP names as JSON
//	POST /enroll?name=X    mint (or rotate) X's token; returns it once
//	POST /enroll?name=X&revoke=1   revoke X's enrollment
//	GET  /debug/pprof/...  runtime profiles (only when PprofOps is set)
//
// The handler is also what ServeOps mounts. Callers embedding it in
// their own server should keep it off untrusted networks: /enroll
// mints credentials.
func (c *Controller) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", ops.Default().Handler())
	if c.PprofOps {
		mountPprof(mux)
	}
	mux.HandleFunc("/status", readOnlyJSON(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.StatusReport())
	}))
	mux.HandleFunc("/traces", readOnlyJSON(func(w http.ResponseWriter, r *http.Request) {
		max := 50
		if s := r.URL.Query().Get("n"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n > 0 {
				max = n
			}
		}
		var filter uint64
		if s := r.URL.Query().Get("trace"); s != "" {
			id, err := strconv.ParseUint(s, 16, 64)
			if err != nil {
				http.Error(w, `{"error":"bad trace id"}`, http.StatusBadRequest)
				return
			}
			filter = id
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.tracesDocument(max, filter))
	}))
	mux.HandleFunc("/enroll", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.Method {
		case http.MethodGet:
			_ = json.NewEncoder(w).Encode(map[string]any{"enrolled": c.EnrolledAPs()})
		case http.MethodPost:
			name := r.URL.Query().Get("name")
			if name == "" {
				http.Error(w, `{"error":"missing name"}`, http.StatusBadRequest)
				return
			}
			if r.URL.Query().Get("revoke") != "" {
				if !c.RevokeAP(name) {
					http.Error(w, `{"error":"not enrolled"}`, http.StatusNotFound)
					return
				}
				_ = json.NewEncoder(w).Encode(map[string]any{"revoked": name})
				return
			}
			token, err := c.EnrollAP(name)
			if err != nil {
				http.Error(w, `{"error":"enroll failed"}`, http.StatusInternalServerError)
				return
			}
			_ = json.NewEncoder(w).Encode(map[string]any{"name": name, "token": token})
		default:
			http.Error(w, `{"error":"method not allowed"}`, http.StatusMethodNotAllowed)
		}
	})
	return mux
}

// mountPprof registers the Go runtime profiling endpoints on mux (the
// explicit-handler form: nothing here touches http.DefaultServeMux)
// and turns on mutex-contention sampling so /debug/pprof/mutex has
// data — the profile loadgen investigations ask for first, since the
// controller's hot paths are lock-bounded, not CPU-bounded.
func mountPprof(mux *http.ServeMux) {
	runtime.SetMutexProfileFraction(5)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeOps starts the operations HTTP server on ln and registers the
// controller's collector families on the default registry. It returns
// immediately; Close shuts the server down with the rest of the
// controller.
func (c *Controller) ServeOps(ln net.Listener) {
	c.RegisterOps(ops.Default())
	srv := &http.Server{Handler: c.OpsHandler(), ReadHeaderTimeout: 5 * time.Second}
	c.mu.Lock()
	c.opsSrv = srv
	c.opsLn = ln
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = srv.Serve(ln)
	}()
}
