package netproto

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"secureangle/internal/defense"
	"secureangle/internal/fusion"
	"secureangle/internal/geom"
	"secureangle/internal/journal"
	"secureangle/internal/locate"
	"secureangle/internal/partition"
	"secureangle/internal/trace"
	"secureangle/internal/wifi"
)

// FenceDecision is the controller's fused output for one transmission.
type FenceDecision struct {
	MAC      wifi.Addr
	SeqNo    uint64
	Pos      geom.Point
	Decision locate.Decision
	// APs lists the access points whose bearings contributed.
	APs []string
}

// DefaultReadTimeout is the per-connection read deadline Serve applies
// between messages when Controller.ReadTimeout is zero. An agent that
// goes silent for longer is disconnected, so a stalled peer cannot pin
// a handler goroutine (and its Close drain) forever. Healthy agents
// with nothing to report stay connected by calling Agent.Ping within
// this window; deployments with listen-only v1 agents (which predate
// Ping) should set ReadTimeout negative to disable the deadline.
const DefaultReadTimeout = 2 * time.Minute

// Controller fuses AP reports into localisation and fence decisions.
// One goroutine per connection reads messages; fusion state lives in a
// bounded fusion.Engine sharded by client MAC (see package fusion for
// the lifecycle guarantees), built lazily from the exported tuning
// fields on first use — set them before traffic arrives.
type Controller struct {
	Fence *locate.Fence
	// MinAPs is the number of distinct AP bearings required per decision
	// (default 2).
	MinAPs int
	// Logf, if set, receives diagnostic output.
	Logf func(format string, args ...any)
	// DecisionTimeout bounds how long a geometrically-degenerate pending
	// decision waits for a more diverse bearing before fusing what it has
	// (default 1s).
	DecisionTimeout time.Duration
	// ReadTimeout is the per-connection keepalive read deadline
	// (default DefaultReadTimeout; negative disables deadlines).
	ReadTimeout time.Duration
	// MinDiversityDeg is the angular-diversity threshold of the
	// geometric-dilution guard (0 = the default 15 degrees; negative
	// disables the guard).
	MinDiversityDeg float64
	// PendingTTL bounds how long a report waits for corroborating
	// bearings from other APs before it is expired (default 10s).
	PendingTTL time.Duration
	// MaxClients caps tracked clients, LRU-evicted beyond it (default
	// 65536). MaxPendingPerClient caps one client's in-flight
	// transmissions (default 8).
	MaxClients          int
	MaxPendingPerClient int
	// FusionShards is the engine's lock-striping factor (default 16).
	FusionShards int
	// DefensePolicy tunes the defense engine's threat state machine —
	// escalation thresholds, score decay, quarantine TTL (zero fields
	// take the package defense defaults). Set it before traffic arrives,
	// like the fusion tuning fields.
	DefensePolicy defense.Policy
	// RequireAuth closes the TCP port to everything but enrolled APs:
	// sessions whose Hello carries no valid enrollment token (any
	// v1–v3 agent, or a v4 agent that skipped `secureangle enroll`)
	// are rejected at the handshake. Off by default — the pre-v4 open
	// behaviour — so existing fleets keep connecting; a presented
	// token must validate even when auth is optional.
	RequireAuth bool
	// SnapshotInterval is the journal's snapshot cadence when WithJournal
	// attached one (default DefaultSnapshotInterval; negative disables
	// snapshots entirely — recovery then replays the whole WAL). Between
	// snapshots a crash costs one WAL-tail replay; shorter intervals buy
	// faster restarts for more write amplification.
	SnapshotInterval time.Duration
	// Partitions splits the controller core into N MAC-range partitions
	// (default 1), each with its own fusion engine, defense engine, and
	// — with WithJournalDir — journal stream. The public API is
	// unchanged: Track, Threats, Quarantined, and StatusReport fan in
	// across partitions. Because fusion/defense state is strictly
	// per-MAC, a partitioned controller is decision-identical to the
	// monolith; per-partition capacity caps (MaxClients etc.) apply to
	// each partition, so the effective totals scale with N. Set it
	// before traffic arrives, like the other tuning fields.
	Partitions int
	// Tracer receives the controller's decision-trace spans (ingest,
	// fusion, alert, directive, ack, release) and applies the tail-based
	// retention policy. Nil uses the process-wide trace.Default()
	// recorder, which /traces exposes.
	Tracer *trace.Recorder
	// PprofOps mounts the Go runtime profiling endpoints
	// (/debug/pprof/..., including CPU, heap, and mutex-contention
	// profiles) on the operations handler. Off by default: profiles
	// expose internals and cost a little steady-state bookkeeping, so
	// they are opt-in like the rest of the ops surface. Set it before
	// OpsHandler/ServeOps.
	PprofOps bool

	mu       sync.Mutex
	apPos    map[string]geom.Point
	decision chan FenceDecision
	subs     map[int]chan FenceDecision
	nextSub  int
	closed   bool
	quar     *peers
	// tokens maps enrolled AP names to token digests (see enroll.go);
	// dirSent remembers when each MAC's latest directive was broadcast
	// so an ack can be turned into a latency sample (bounded, see
	// noteDirectiveSent). Both under mu.
	tokens  map[string][sha256.Size]byte
	dirSent map[wifi.Addr]time.Time

	// opsSrv is the /metrics + /status HTTP server when ServeOps was
	// called (nil otherwise), shut down by Close.
	opsSrv *http.Server
	opsLn  net.Listener

	// parts is the partitioned engine core (one fusion + defense engine
	// pair per MAC-range partition), built lazily on first traffic —
	// both engine kinds together, freezing the tuning fields.
	partsOnce   sync.Once
	parts       atomic.Pointer[partition.Set]
	unknownAP   atomic.Uint64
	observerSeq atomic.Uint64
	// decisionsDropped counts fence-decision deliveries dropped because
	// the Decisions() channel or a subscriber was full. The drop logs
	// rate-limit the matching log lines (see dropLog).
	decisionsDropped atomic.Uint64
	unknownAPLog     dropLog
	decisionDropLog  dropLog
	subDropLog       dropLog
	// directiveAcks counts applied-countermeasure reports from APs.
	directiveAcks atomic.Uint64

	// The flight recorder (see WithJournal / WithJournalDir): one
	// journal per partition; clk is the engines' time source, pinned to
	// recorded timestamps while recovery replays the WAL tail;
	// recovering suppresses journaling and fan-out of the re-derived
	// events.
	jset       atomic.Pointer[journalSet]
	clk        journal.ReplayClock
	recovering atomic.Bool
	snapDone   chan struct{}
	snapWG     sync.WaitGroup

	// repl tracks live replication sessions (peers that subscribed with
	// a SegmentAck), for the lag gauge and /status.
	replMu sync.Mutex
	repl   map[*replSession]struct{}

	ln     net.Listener
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// NewController returns a controller enforcing the given fence.
func NewController(fence *locate.Fence) *Controller {
	ctx, cancel := context.WithCancel(context.Background())
	return &Controller{
		Fence:    fence,
		MinAPs:   2,
		apPos:    make(map[string]geom.Point),
		decision: make(chan FenceDecision, 64),
		subs:     make(map[int]chan FenceDecision),
		quar:     newPeers(),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// fusionConfig assembles the engine Config from the controller's
// tuning fields as they stand right now.
func (c *Controller) fusionConfig() fusion.Config {
	return fusion.Config{
		Shards:              c.FusionShards,
		MinAPs:              c.MinAPs,
		DecisionTimeout:     c.DecisionTimeout,
		PendingTTL:          c.PendingTTL,
		MinDiversityDeg:     c.MinDiversityDeg,
		MaxClients:          c.MaxClients,
		MaxPendingPerClient: c.MaxPendingPerClient,
		Fence:               c.Fence,
		APCount:             c.apCount,
		Emit:                c.emitDecision,
		Logf:                func(format string, args ...any) { c.logf(format, args...) },
		Clock:               c.clk.Now,
	}
}

// nParts resolves the partition count (Partitions <= 0 means 1).
func (c *Controller) nParts() int {
	if c.Partitions <= 0 {
		return 1
	}
	return c.Partitions
}

// partsBuild returns the partitioned engine set, building every
// partition's fusion and defense engine on first traffic from the
// controller's tuning fields (so callers may set them any time between
// NewController and the first report; read-only accessors never
// trigger the build). Contradictory settings panic, the core.NewAP
// Config contract — Serve pre-validates so the common misconfiguration
// fails at startup, not at the first packet. After Close, either no
// set exists (nil, and ingest is a no-op) or the existing engines
// refuse further input themselves.
func (c *Controller) partsBuild() *partition.Set {
	if s := c.parts.Load(); s != nil {
		return s
	}
	c.partsOnce.Do(func() {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		c.parts.Store(partition.MustNew(c.nParts(),
			func(int) fusion.Config { return c.fusionConfig() },
			func(int) defense.Config { return c.defenseConfig() }))
	})
	return c.parts.Load()
}

// partsLoaded returns the engine set only if traffic (or recovery) has
// already built it — the read-only accessors' view.
func (c *Controller) partsLoaded() *partition.Set { return c.parts.Load() }

func (c *Controller) apCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.apPos)
}

// defenseConfig assembles the defense engine Config from the
// controller's tuning as it stands right now.
func (c *Controller) defenseConfig() defense.Config {
	return defense.Config{
		Policy: c.DefensePolicy,
		Emit:   c.emitDirective,
		Logf:   func(format string, args ...any) { c.logf(format, args...) },
		Clock:  c.clk.Now,
	}
}

// Release is the operator path out of quarantine: drop the MAC's
// threat state back to allow and broadcast the release directive to
// every v2 AP. Reports whether the MAC had any threat state. (The wire
// face is Agent.SendRelease; the CLI face `secureangle defense
// -release`.)
func (c *Controller) Release(mac wifi.Addr) bool {
	return c.releaseFrom(mac, "operator")
}

// releaseFrom is the shared release path: source names who asked (the
// in-process API, or the AP that relayed a wire request) and is what
// the journal records.
func (c *Controller) releaseFrom(mac wifi.Addr, source string) bool {
	s := c.partsLoaded()
	if s == nil {
		return false
	}
	// Capture the threat's trace link before Release wipes the entry —
	// the timeline's closing event joins on it.
	var tr uint64
	if th, ok := s.State(mac); ok {
		tr = th.Trace
	}
	ok := s.Release(mac)
	if ok {
		c.traceSpan(trace.StageRelease, tr, mac, source, 0)
		c.tracer().Retain(tr)
		c.journalAppend(mac, journal.RecRelease, journal.EncodeRelease(journal.ReleaseEvent{MAC: mac, Source: source, Trace: tr}))
	}
	return ok
}

// Threats returns the defense engine's live threat state for every
// tracked client — the in-process face of the Query(KindThreats)
// exchange.
func (c *Controller) Threats() []defense.ClientThreat {
	if s := c.partsLoaded(); s != nil {
		return s.Threats()
	}
	return nil
}

// Threat returns one client's live threat state.
func (c *Controller) Threat(mac wifi.Addr) (defense.ClientThreat, bool) {
	if s := c.partsLoaded(); s != nil {
		return s.State(mac)
	}
	return defense.ClientThreat{}, false
}

// emitDecision fans one fused decision out to the legacy channel and
// every subscriber, then feeds the defense engine (the fusion engine
// calls it outside shard locks). The serial path: the mobility track
// is queried right after the fence report, which — with one ingest per
// emit — is the state the completing bearing left behind.
func (c *Controller) emitDecision(d fusion.Decision) {
	if !c.fanOutDecision(d) {
		return // mid-close: the engines may be tearing down too
	}
	if s := c.partsBuild(); s != nil {
		c.reportFence(s, d)
		if ts, ok := s.Track(d.MAC); ok {
			s.ReportTrack(defense.TrackVerdict{MAC: d.MAC, Pos: ts.Pos, Vel: ts.Vel, Trace: d.Trace})
		}
	}
}

// emitDecisionTracked is emitDecision for the batched ingest path: the
// track state was captured under the shard lock at decision time, so
// the defense engine sees the same mobility evidence a serial
// Ingest/emit interleaving would — not a track already advanced by
// later same-MAC bearings in the batch.
func (c *Controller) emitDecisionTracked(d fusion.Decision, ts fusion.TrackState, tracked bool) {
	if !c.fanOutDecision(d) {
		return // mid-close: the engines may be tearing down too
	}
	if s := c.partsBuild(); s != nil {
		c.reportFence(s, d)
		if tracked {
			s.ReportTrack(defense.TrackVerdict{MAC: d.MAC, Pos: ts.Pos, Vel: ts.Vel, Trace: d.Trace})
		}
	}
}

// fanOutDecision journals a decision and delivers it to the legacy
// channel and every subscriber. It returns false when the controller
// is mid-close (channels torn down) and the caller should stop.
func (c *Controller) fanOutDecision(d fusion.Decision) bool {
	// During journal recovery the decision is a re-derivation of history:
	// it still feeds the defense engine (that is how threat scores are
	// rebuilt), but consumers must not see it again and the journal
	// already holds it.
	if c.recovering.Load() {
		return true
	}
	c.journalAppend(d.MAC, journal.RecDecision, journal.EncodeDecision(d))
	// Tail-based retention decided at the fusion boundary: an allowed
	// decision is benign (kept at the probabilistic sample rate); a
	// denied one is fence evidence and retained unconditionally.
	c.traceSpan(trace.StageFuse, d.Trace, d.MAC, "controller", 0)
	if d.Decision == locate.Allow {
		c.tracer().Sample(d.Trace)
	} else {
		c.tracer().Retain(d.Trace)
	}
	out := FenceDecision{MAC: d.MAC, SeqNo: d.Seq, Pos: d.Pos, Decision: d.Decision, APs: d.APs}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false // the decision channels may be mid-close
	}
	select {
	case c.decision <- out:
	default:
		c.decisionsDropped.Add(1)
		if n, ok := c.decisionDropLog.note(time.Now(), 1); ok {
			c.logf("controller: decision channel full, dropped %d decision(s) (latest %v)", n, out.MAC)
		}
	}
	for id, ch := range c.subs {
		select {
		case ch <- out:
		default:
			c.decisionsDropped.Add(1)
			if n, ok := c.subDropLog.note(time.Now(), 1); ok {
				c.logf("controller: subscriber(s) behind, dropped %d decision(s) (latest subscriber %d, %v)", n, id, out.MAC)
			}
		}
	}
	c.mu.Unlock()
	return true
}

// reportFence closes the loop: every fused fence decision is defense
// evidence.
func (c *Controller) reportFence(s *partition.Set, d fusion.Decision) {
	s.ReportFence(defense.FenceVerdict{
		MAC: d.MAC, Seq: d.Seq, Pos: d.Pos,
		Allowed: d.Decision == locate.Allow, Forced: d.Forced,
		Trace: d.Trace,
	})
}

// ControllerStats aggregates the fusion engine's counters with the
// defense engine's and the controller's own ingress drops.
type ControllerStats struct {
	fusion.Stats
	// Defense holds the defense engine's counters (verdicts ingested,
	// quarantines, null-steer escalations, releases by cause).
	Defense defense.Stats
	// UnknownAPDrops counts reports from APs that never sent a Hello.
	UnknownAPDrops uint64
	// DecisionsDropped counts fence-decision deliveries dropped because
	// the Decisions() channel or a subscriber was full.
	DecisionsDropped uint64
	// DirectiveAcks counts applied-countermeasure reports from APs.
	DirectiveAcks uint64
}

// Stats snapshots the controller's fusion, defense, and ingress
// counters. Like the other read-only accessors it reports zeros before
// the first report has built the engines, rather than building them
// (which would freeze the tuning fields early).
func (c *Controller) Stats() ControllerStats {
	s := ControllerStats{
		UnknownAPDrops:   c.unknownAP.Load(),
		DecisionsDropped: c.decisionsDropped.Load(),
		DirectiveAcks:    c.directiveAcks.Load(),
	}
	if set := c.partsLoaded(); set != nil {
		s.Stats = set.Stats()
		s.Defense = set.DefenseStats()
	}
	return s
}

// Track returns the live mobility-trace state for one client MAC — the
// in-process face of the wire Query/Tracks exchange.
func (c *Controller) Track(mac wifi.Addr) (fusion.TrackState, bool) {
	if s := c.partsLoaded(); s != nil {
		return s.Track(mac)
	}
	return fusion.TrackState{}, false
}

// Snapshot returns the mobility-trace state of every tracked client.
func (c *Controller) Snapshot() []fusion.TrackState {
	if s := c.partsLoaded(); s != nil {
		return s.Snapshot()
	}
	return nil
}

// Decisions delivers fused fence decisions as they become available —
// the v1 single-consumer channel, kept for compatibility. New callers
// use Subscribe, which fans out to any number of consumers.
func (c *Controller) Decisions() <-chan FenceDecision { return c.decision }

// Subscription is one registered consumer of fused fence decisions.
type Subscription struct {
	// C delivers this subscriber's decisions. It closes on Unsubscribe
	// or when the controller shuts down.
	C <-chan FenceDecision

	id int
	ch chan FenceDecision
}

// Subscribe registers a decision consumer. Every fused decision is
// fanned out to all live subscriptions (and the legacy Decisions
// channel); a subscriber that falls more than buf decisions behind has
// further decisions dropped rather than stalling fusion. buf <= 0
// defaults to 64. Subscribing to a closed controller returns an
// already-closed channel.
func (c *Controller) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan FenceDecision, buf)
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextSub
	c.nextSub++
	if c.closed {
		close(ch)
	} else {
		c.subs[id] = ch
	}
	return &Subscription{C: ch, id: id, ch: ch}
}

// Unsubscribe removes a subscription and closes its channel. Safe to
// call after Close (a no-op then: Close already closed the channel).
func (c *Controller) Unsubscribe(s *Subscription) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.subs[s.id]; ok {
		delete(c.subs, s.id)
		close(ch)
	}
}

// Serve starts accepting AP connections on the listener. It returns
// immediately; Close shuts everything down. Contradictory fusion or
// defense tuning (see Config in packages fusion and defense) panics
// here, before any peer traffic can trigger the engines' lazy builds
// inside a handler.
func (c *Controller) Serve(ln net.Listener) {
	if c.parts.Load() == nil {
		if err := c.fusionConfig().WithDefaults().Validate(); err != nil {
			panic(err)
		}
		if err := c.defenseConfig().WithDefaults().Validate(); err != nil {
			panic(err)
		}
		if n := c.nParts(); n > partition.MaxPartitions {
			panic(fmt.Sprintf("netproto: Partitions %d exceeds %d", n, partition.MaxPartitions))
		}
	}
	c.ln = ln
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				c.handle(conn)
			}()
		}
	}()
}

// Close stops the listener, drains the in-flight connection handlers
// (each is unblocked by cancelling its connection), shuts the fusion
// engine down, and only then closes the decision channels, so no
// consumer sees a premature close. The final fusion statistics are
// logged through Logf.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	// Flight recorder last rites: stop the snapshot ticker, then for
	// each partition in deterministic order 0..N-1 take the shutdown
	// snapshot while the engines are still alive (so a clean restart
	// restores instantly instead of replaying the WAL) and only then
	// seal that partition's journal. Snapshot-before-seal per partition
	// matters: sealing first would leave the snapshot unwritable and a
	// restart replaying the whole WAL tail.
	if c.snapDone != nil {
		close(c.snapDone)
		c.snapWG.Wait()
	}
	if js := c.jset.Load(); js != nil {
		for i, j := range js.js {
			if c.snapshotsEnabled() {
				if err := c.saveSnapshot(i, j); err != nil {
					c.logf("controller: shutdown snapshot p%d: %v", i, err)
				}
			}
			if err := j.Close(); err != nil {
				c.logf("controller: journal close p%d: %v", i, err)
			}
		}
	}
	// Burn the lazy-init slot so a racing ingest cannot build a fresh
	// engine set after we shut down; then close whichever engines exist.
	c.partsOnce.Do(func() {})
	if set := c.partsLoaded(); set != nil {
		set.Close()
		s := set.Stats()
		c.logf("controller: close: ingested=%d decisions=%d dups=%d expired=%d evictedPending=%d evictedClients=%d forced=%d fuseErrors=%d unknownAP=%d decisionsDropped=%d",
			s.Ingested, s.Decisions, s.DupDropped, s.PendingExpired, s.PendingEvicted, s.ClientsEvicted, s.ForcedTimeouts, s.FuseErrors, c.unknownAP.Load(), c.decisionsDropped.Load())
		d := set.DefenseStats()
		c.logf("controller: defense close: spoofs=%d fences=%d tracks=%d quarantines=%d nullSteers=%d releases=%d (decay=%d ttl=%d operator=%d evicted=%d) acks=%d",
			d.SpoofVerdicts, d.FenceVerdicts, d.TrackVerdicts, d.Quarantines, d.NullSteers, d.Releases, d.DecayReleases, d.TTLReleases, d.OperatorReleases, d.EvictedReleases, c.directiveAcks.Load())
	}
	c.cancel()
	if c.ln != nil {
		c.ln.Close()
	}
	c.mu.Lock()
	opsSrv := c.opsSrv
	c.mu.Unlock()
	if opsSrv != nil {
		opsSrv.Close()
	}
	c.wg.Wait()
	close(c.decision)
	c.mu.Lock()
	for id, ch := range c.subs {
		delete(c.subs, id)
		close(ch)
	}
	c.mu.Unlock()
}

func (c *Controller) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// tracer resolves the span recorder (Tracer field, else the process
// default).
func (c *Controller) tracer() *trace.Recorder {
	if c.Tracer != nil {
		return c.Tracer
	}
	return trace.Default()
}

// traceSpan records one controller-side span on a packet's decision
// trace. No-op for untraced events (id zero) and during journal
// recovery — replayed history must not mint fresh wall-clock timings.
// start == 0 records a point event at now; a nonzero start records the
// elapsed interval since it.
func (c *Controller) traceSpan(stage trace.Stage, id uint64, mac wifi.Addr, ap string, start int64) {
	if id == 0 || c.recovering.Load() {
		return
	}
	now := trace.Now()
	var dur int64
	if start != 0 {
		dur = now - start
	} else {
		start = now
	}
	c.tracer().Record(trace.Span{
		Trace: id, Stage: stage, Start: start, Dur: dur,
		MAC: mac, AP: ap, Partition: uint16(partition.IndexFor(mac, c.nParts())),
	})
}

// readTimeout resolves the keepalive deadline (<0 disables).
func (c *Controller) readTimeout() time.Duration {
	if c.ReadTimeout != 0 {
		return c.ReadTimeout
	}
	return DefaultReadTimeout
}

func (c *Controller) handle(conn net.Conn) {
	defer conn.Close()
	// Close the connection when the controller shuts down so the read
	// loop unblocks.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-c.ctx.Done():
			conn.Close()
		case <-done:
		}
	}()

	helloed := false
	tokenOK := false
	var ver uint16 = ProtoV1
	var apName string
	var bcast chan []byte
	var health *apHealth
	var repl *replSession
	for {
		if t := c.readTimeout(); t > 0 {
			conn.SetReadDeadline(time.Now().Add(t))
		}
		body, err := ReadMessage(conn)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				c.logf("controller: read: %v", err)
			}
			return
		}
		msg, err := Unmarshal(body)
		if err != nil {
			c.logf("controller: decode: %v", err)
			return
		}
		if health != nil {
			health.lastSeen.Store(time.Now().UnixNano())
			health.frames.Add(1)
		}
		switch m := msg.(type) {
		case Hello:
			if helloed {
				c.logf("controller: duplicate Hello %q ignored", m.Name)
				continue
			}
			helloed = true
			ver = NegotiateVersion(m.Version)
			if ok, reason := c.authorize(m); !ok {
				// Reject before the AP registers as a bearing source. A
				// v4 peer gets the typed rejection; older peers (which
				// can only be here with RequireAuth on) just see the
				// connection drop — their protocol has no room for more.
				if ver >= ProtoV4 {
					if err := WriteMessage(conn, MarshalWelcome(Welcome{Version: ver, Status: WelcomeAuthRejected})); err != nil {
						c.logf("controller: auth reject to %q: %v", m.Name, err)
					}
				}
				mAuthRejects.Inc()
				c.logf("controller: session %q rejected: %s", m.Name, reason)
				return
			}
			// A token that reached this point validated (authorize
			// rejects bad ones even when auth is optional): the session
			// is entitled to the token-gated exchanges — replication.
			tokenOK = m.Token != ""
			apName = m.Name
			if m.Name == "" {
				// Observer session: receives broadcasts and may query,
				// but is never a bearing source — kept out of apPos so
				// it cannot skew the all-APs-reported fusion shortcut.
				apName = fmt.Sprintf("#observer%d", c.observerSeq.Add(1))
				c.logf("controller: observer %s connected (protocol v%d)", apName, ver)
			} else {
				c.mu.Lock()
				c.apPos[m.Name] = m.Pos
				c.mu.Unlock()
				c.logf("controller: AP %q at %v (protocol v%d)", m.Name, m.Pos, ver)
			}
			if m.Version >= ProtoV2 {
				// v2 handshake: answer with the negotiated version.
				// Written directly — the broadcaster is not running yet,
				// so this goroutine still owns the write side and the
				// Welcome is guaranteed to be the first controller frame
				// the agent reads. (On v4+ sessions MarshalWelcome
				// appends WelcomeOK.)
				if err := WriteMessage(conn, MarshalWelcome(Welcome{Version: ver})); err != nil {
					c.logf("controller: welcome to %q: %v", m.Name, err)
					return
				}
			}
			health = newAPHealth(apName, m.Name == "", ver)
			bcast = c.startBroadcaster(apName, conn, done, ver, health)
		case Ping:
			// Keepalive only: reading it already pushed the deadline.
		case Report:
			if health != nil {
				health.reports.Add(1)
			}
			c.ingest(m)
		case ReportBatch:
			if health != nil {
				health.reports.Add(uint64(len(m)))
			}
			c.ingestBatch(m)
		case Alert:
			c.handleAlert(m)
		case Query:
			// v2-gated: a Query on a v1 session (or before the Hello) is
			// ignored rather than answered with frames the peer cannot
			// decode — and rather than killing the connection.
			if !helloed || ver < ProtoV2 {
				c.logf("controller: query ignored on v%d session", ver)
				continue
			}
			c.answerQuery(m, apName, bcast, ver)
		case Directive:
			// v3-gated: countermeasure acks and operator release
			// requests only make sense on a session that negotiated the
			// defense exchanges.
			if !helloed || ver < ProtoV3 {
				c.logf("controller: directive ignored on v%d session", ver)
				continue
			}
			c.handleDirective(m, apName)
		case SegmentAck:
			// v4-gated and token-gated: journal streaming ships the
			// fleet's full event history, so only a peer that proved an
			// enrollment token may subscribe. The first ack is the
			// subscribe position vector; later ones report applied LSNs.
			if !helloed || ver < ProtoV4 || !tokenOK {
				c.logf("controller: segment ack ignored on unauthenticated v%d session", ver)
				continue
			}
			repl = c.handleSegmentAck(repl, m, apName, done)
		}
	}
}

// startBroadcaster registers an outbound queue for an AP connection and
// pumps controller broadcasts (quarantine alerts, track replies) onto
// the socket. From this point the write side of the connection is the
// broadcaster's alone, so no lock is shared with the read loop.
//
// An AP reconnecting under a name still registered (its old TCP
// connection lingering half-open) replaces the registration atomically:
// the stale broadcaster is stopped, its queue abandoned, and its
// connection closed so the old handler reaps itself — no handoff window
// in which broadcasts race between the two connections.
func (c *Controller) startBroadcaster(name string, conn net.Conn, done chan struct{}, version uint16, health *apHealth) chan []byte {
	ch := make(chan []byte, 16)
	stop := make(chan struct{})
	if health != nil {
		health.queue = func() int { return len(ch) }
	}
	c.quar.mu.Lock()
	prev, hadPrev := c.quar.conns[name]
	c.quar.conns[name] = apConn{ch: ch, version: version, stop: stop, conn: conn, health: health}
	c.quar.mu.Unlock()
	if hadPrev {
		c.logf("controller: AP %q reconnected, replacing stale connection", name)
		close(prev.stop)
		prev.conn.Close()
	}
	// A (re)connecting AP must learn the quarantines already in force —
	// after a controller restart the defense engine's restored leases
	// would otherwise exist only in controller memory while the fleet,
	// freshly rebooted or lease-expired, lets the attackers back in.
	resume := c.resumeFrames(version)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			c.quar.mu.Lock()
			if cur, ok := c.quar.conns[name]; ok && cur.ch == ch {
				delete(c.quar.conns, name)
			}
			c.quar.mu.Unlock()
		}()
		// The pump owns the write side from birth, so the resume frames
		// are written directly, ahead of any queued broadcast.
		for _, frame := range resume {
			if err := WriteMessage(conn, frame); err != nil {
				return
			}
		}
		for {
			select {
			case body := <-ch:
				if err := WriteMessage(conn, body); err != nil {
					return
				}
			case <-stop:
				return
			case <-c.ctx.Done():
				return
			case <-done:
				return
			}
		}
	}()
	return ch
}

// ingest resolves a report's AP position and hands the bearing to the
// fusion engine, which emits a decision once MinAPs distinct APs have
// reported the same (MAC, seq) with acceptable geometry.
func (c *Controller) ingest(r Report) {
	c.mu.Lock()
	pos, ok := c.apPos[r.APName]
	c.mu.Unlock()
	if !ok {
		c.dropUnknownAP(1, r.APName)
		return
	}
	// Apply before journaling: a snapshot racing this event then either
	// sees its effect (and the event's LSN predates the capture) or the
	// event lands in the replayed tail — double-applied at worst, never
	// lost. The fusion seq window absorbs a re-applied report.
	t0 := trace.Now()
	if s := c.partsBuild(); s != nil {
		s.Ingest(fusion.Bearing{AP: r.APName, APPos: pos, MAC: r.MAC, Seq: r.SeqNo, Deg: r.BearingDeg, Trace: r.Trace})
	}
	c.traceSpan(trace.StageIngest, r.Trace, r.MAC, r.APName, t0)
	c.journalAppend(r.MAC, journal.RecReport, journal.EncodeReport(journal.ReportEvent{
		AP: r.APName, APPos: pos, MAC: r.MAC, Seq: r.SeqNo, BearingDeg: r.BearingDeg, Trace: r.Trace,
	}))
}

// dropUnknownAP counts n reports dropped because their AP never sent a
// Hello, logging at the drop log's rate.
func (c *Controller) dropUnknownAP(n int, latest string) {
	c.unknownAP.Add(uint64(n))
	if total, ok := c.unknownAPLog.note(time.Now(), uint64(n)); ok {
		c.logf("controller: dropped %d report(s) from unknown AP(s) (latest %q)", total, latest)
	}
}

// batchIngestScratch is the pooled per-batch state of ingestBatch: the
// resolved bearings, their partition-grouped reordering, and the
// encode arena + record headers each journal flush reuses.
type batchIngestScratch struct {
	bearings []fusion.Bearing
	grouped  []fusion.Bearing
	partOf   []int32
	counts   []int32
	recs     []journal.Record
	enc      []byte
	offs     []int32
}

var batchIngestPool = sync.Pool{New: func() any { return &batchIngestScratch{} }}

// ingestBatch is the TypeReportBatch fast path: one AP-position lookup
// pass under one lock, one partition grouping pass, one engine batch
// per touched partition (fusion takes each shard lock once, not once
// per report), and group-committed report records. Per-partition
// journal streams are byte-identical to len(rs) serial ingest calls:
// within a partition, the records of report i's fused decision (and
// any directives it provokes) land before report i's own record, and
// reports between decisions group-commit as one journal batch.
func (c *Controller) ingestBatch(rs []Report) {
	if len(rs) == 0 {
		return
	}
	if len(rs) == 1 {
		c.ingest(rs[0])
		return
	}
	sc := batchIngestPool.Get().(*batchIngestScratch)
	// Resolve every report's AP position under one registry lock.
	bearings := sc.bearings[:0]
	unknown, unknownName := 0, ""
	c.mu.Lock()
	for i := range rs {
		r := &rs[i]
		pos, ok := c.apPos[r.APName]
		if !ok {
			unknown, unknownName = unknown+1, r.APName
			continue
		}
		bearings = append(bearings, fusion.Bearing{AP: r.APName, APPos: pos, MAC: r.MAC, Seq: r.SeqNo, Deg: r.BearingDeg, Trace: r.Trace})
	}
	c.mu.Unlock()
	sc.bearings = bearings
	for i := range bearings {
		b := &bearings[i]
		c.traceSpan(trace.StageIngest, b.Trace, b.MAC, b.AP, 0)
	}
	if unknown > 0 {
		c.dropUnknownAP(unknown, unknownName)
	}
	if len(bearings) == 0 {
		c.releaseBatchScratch(sc)
		return
	}

	set := c.partsBuild()
	n := 1
	if set != nil {
		n = set.N()
	} else if js := c.journals(); js != nil {
		n = len(js) // journal-only mode: group for the right journals
	}
	if n == 1 {
		c.ingestRun(set, 0, bearings, sc)
		c.releaseBatchScratch(sc)
		return
	}

	// Group bearings by partition (stable counting sort): each
	// partition's engine and journal then see one contiguous run.
	if cap(sc.partOf) < len(bearings) {
		sc.partOf = make([]int32, len(bearings))
		sc.grouped = make([]fusion.Bearing, len(bearings))
	}
	if cap(sc.counts) < n+1 {
		sc.counts = make([]int32, n+1)
	}
	partOf, grouped := sc.partOf[:len(bearings)], sc.grouped[:len(bearings)]
	counts := sc.counts[:n+1]
	for i := range counts {
		counts[i] = 0
	}
	for i := range bearings {
		p := int32(partition.IndexFor(bearings[i].MAC, n))
		partOf[i] = p
		counts[p+1]++
	}
	for p := 0; p < n; p++ {
		counts[p+1] += counts[p]
	}
	next := counts[:n]
	for i := range bearings {
		p := partOf[i]
		grouped[next[p]] = bearings[i]
		next[p]++
	}
	start := int32(0)
	for p := 0; p < n; p++ {
		end := counts[p] // advanced to the run's end by the scatter
		if end == start {
			continue
		}
		c.ingestRun(set, p, grouped[start:end], sc)
		start = end
	}
	c.releaseBatchScratch(sc)
}

// ingestRun feeds one partition's contiguous run of bearings to its
// fusion engine as a batch and journals the run's report records in
// group commits, interleaved so the per-partition record stream
// matches serial ingest: reports before a decision flush as one batch
// before that decision's records.
func (c *Controller) ingestRun(set *partition.Set, p int, run []fusion.Bearing, sc *batchIngestScratch) {
	cursor := 0
	if set != nil {
		set.At(p).Fusion.IngestBatch(run, func(i int, d fusion.Decision, ts fusion.TrackState, tracked bool) {
			if i > cursor {
				c.flushReportRun(p, run[cursor:i], sc)
				cursor = i
			}
			c.emitDecisionTracked(d, ts, tracked)
		})
	}
	c.flushReportRun(p, run[cursor:], sc)
}

// flushReportRun group-commits one slice of a partition run's report
// records: every payload is encoded into one reused arena and the
// whole slice lands with a single journal AppendBatch.
func (c *Controller) flushReportRun(p int, run []fusion.Bearing, sc *batchIngestScratch) {
	if len(run) == 0 {
		return
	}
	js := c.journals()
	if js == nil || c.recovering.Load() {
		return
	}
	enc, offs := sc.enc[:0], sc.offs[:0]
	for i := range run {
		b := &run[i]
		enc = journal.AppendReport(enc, journal.ReportEvent{
			AP: b.AP, APPos: b.APPos, MAC: b.MAC, Seq: b.Seq, BearingDeg: b.Deg, Trace: b.Trace,
		})
		offs = append(offs, int32(len(enc)))
	}
	recs := sc.recs[:0]
	prev := int32(0)
	for _, off := range offs {
		recs = append(recs, journal.Record{Type: journal.RecReport, Data: enc[prev:off:off]})
		prev = off
	}
	sc.enc, sc.offs, sc.recs = enc, offs, recs
	if p < 0 || p >= len(js) {
		p = 0
	}
	if _, err := js[p].AppendBatch(recs); err != nil && !errors.Is(err, journal.ErrClosed) {
		c.logf("controller: journal batch append p%d: %v", p, err)
	}
}

// releaseBatchScratch clears reference-holding scratch and pools it.
func (c *Controller) releaseBatchScratch(sc *batchIngestScratch) {
	clear(sc.bearings)
	clear(sc.grouped)
	clear(sc.recs) // Data fields alias the arena; drop them
	batchIngestPool.Put(sc)
}

// --- AP agent side ---

// Agent is an AP's connection to the controller.
type Agent struct {
	conn net.Conn
	mu   sync.Mutex

	// version is the negotiated protocol version (ProtoV1 when the
	// legacy constructors skipped the handshake).
	version uint16

	// Timeout, when positive, bounds every Send*/SendAlert* write with
	// a deadline, so a wedged controller cannot block the AP's hot path
	// indefinitely. Set it before sharing the Agent across goroutines.
	Timeout time.Duration

	// The shared inbound reader (see startReader): one goroutine demuxes
	// controller frames onto the per-type channels for Alerts,
	// TrackReplies, ThreatReplies, and Directives. Track/threat frames
	// nobody subscribed to are discarded, so a tracks-only consumer is
	// never wedged behind undrained alerts (and vice versa); alerts and
	// directives arriving before their accessor is called are parked
	// (bounded) and flushed to the first subscriber.
	readerOnce     sync.Once
	alerts         chan Alert
	tracks         chan Tracks
	threats        chan Threats
	directives     chan Directive
	wantAlerts     atomic.Bool
	wantTracks     atomic.Bool
	wantThreats    atomic.Bool
	wantDirectives atomic.Bool
	pendMu         sync.Mutex
	pendAlerts     []Alert
	pendDirectives []Directive
	readerClosed   bool // reader exited; channels are closed (pendMu)
	querySeq       atomic.Uint32
}

// Version reports the protocol version negotiated for this session.
func (a *Agent) Version() uint16 {
	if a.version == 0 {
		return ProtoV1
	}
	return a.version
}

// Dial connects to the controller and sends the Hello as given — the
// v1 exchange (no version negotiation) unless the caller sets
// hello.Version and reads the Welcome itself. New code uses
// DialContext, which negotiates automatically.
func Dial(addr string, hello Hello) (*Agent, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &Agent{conn: conn, version: NegotiateVersion(hello.Version)}
	if err := WriteMessage(conn, MarshalHello(hello)); err != nil {
		conn.Close()
		return nil, err
	}
	return a, nil
}

// DialContext connects to the controller under ctx (an already-
// cancelled context fails immediately; a deadline bounds dial and
// handshake) and performs the v2 handshake: the Hello advertises
// hello.Version (defaulted to ProtoVersion when zero) and the
// controller's Welcome fixes the session version, readable afterwards
// via Version.
func DialContext(ctx context.Context, addr string, hello Hello) (*Agent, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	a, err := handshake(ctx, conn, hello)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return a, nil
}

// NewAgentOn wraps an existing connection (tests use net.Pipe) with the
// v1 exchange: the Hello is written as given and no reply is awaited.
func NewAgentOn(conn net.Conn, hello Hello) (*Agent, error) {
	a := &Agent{conn: conn, version: NegotiateVersion(hello.Version)}
	if err := WriteMessage(conn, MarshalHello(hello)); err != nil {
		return nil, err
	}
	return a, nil
}

// NewAgentContext is DialContext's handshake on an existing connection:
// it writes a versioned Hello and waits for the controller's Welcome.
// The far end must therefore be a (v2) controller, not a passive pipe.
func NewAgentContext(ctx context.Context, conn net.Conn, hello Hello) (*Agent, error) {
	return handshake(ctx, conn, hello)
}

// handshake writes the versioned Hello and consumes the Welcome. Both a
// ctx deadline and plain cancellation interrupt it: cancellation closes
// the connection mid-handshake, so a peer that accepts but never
// replies cannot block the caller.
func handshake(ctx context.Context, conn net.Conn, hello Hello) (*Agent, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if hello.Version == 0 {
		hello.Version = ProtoVersion
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
		defer conn.SetDeadline(time.Time{})
	}
	if err := WriteMessage(conn, MarshalHello(hello)); err != nil {
		return nil, err
	}
	a := &Agent{conn: conn, version: ProtoV1}
	if hello.Version >= ProtoV2 {
		body, err := ReadMessage(conn)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("netproto: welcome: %w", err)
		}
		msg, err := Unmarshal(body)
		if err != nil {
			return nil, fmt.Errorf("netproto: welcome: %w", err)
		}
		w, ok := msg.(Welcome)
		if !ok {
			return nil, fmt.Errorf("netproto: expected Welcome, got %T", msg)
		}
		if w.Status != WelcomeOK {
			return nil, ErrAuthRejected
		}
		a.version = NegotiateVersion(w.Version)
	}
	return a, nil
}

// writeBody frames and writes one message with the Agent's write
// deadline applied. Caller holds a.mu.
func (a *Agent) writeBody(body []byte) error {
	if a.Timeout > 0 {
		a.conn.SetWriteDeadline(time.Now().Add(a.Timeout))
		defer a.conn.SetWriteDeadline(time.Time{})
	}
	return WriteMessage(a.conn, body)
}

// Send ships one report, encoded at the session's negotiated version
// (the trace ID needs v5 — older sessions get it stripped); safe for
// concurrent use. A configured Timeout bounds the write.
func (a *Agent) Send(r Report) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeBody(marshalReportV(r, a.Version()))
}

// SendContext is Send with the context's deadline bounding the write
// instead of the Agent's Timeout; an already-cancelled context fails
// immediately, before taking the send lock.
func (a *Agent) SendContext(ctx context.Context, r Report) error {
	return a.sendWithCtx(ctx, func(write func([]byte) error) error {
		return write(marshalReportV(r, a.Version()))
	})
}

// SendBatch ships a batch of reports as ReportBatch messages — the
// AP-side counterpart of core.ObserveBatch, one frame (and one syscall)
// for many observations instead of one each. Batches whose encoding
// would exceed MaxMessageSize are split across multiple frames
// transparently. Safe for concurrent use; reports of one call are not
// interleaved with other senders. A configured Timeout bounds each
// frame's write.
func (a *Agent) SendBatch(rs []Report) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sendBatchLocked(rs, a.writeBody)
}

// SendBatchContext is SendBatch with the context's deadline bounding
// every frame write instead of the Agent's Timeout; an already-
// cancelled context fails immediately.
func (a *Agent) SendBatchContext(ctx context.Context, rs []Report) error {
	return a.sendWithCtx(ctx, func(write func([]byte) error) error {
		return a.sendBatchLocked(rs, write)
	})
}

// sendWithCtx runs one send operation under a.mu with the context's
// deadline (when present) replacing the Agent's Timeout for its writes.
// The single home for the deadline-vs-Timeout rule.
func (a *Agent) sendWithCtx(ctx context.Context, send func(write func([]byte) error) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if dl, ok := ctx.Deadline(); ok {
		a.conn.SetWriteDeadline(dl)
		defer a.conn.SetWriteDeadline(time.Time{})
		return send(func(body []byte) error { return WriteMessage(a.conn, body) })
	}
	return send(a.writeBody)
}

// sendBatchLocked chunks reports into ReportBatch frames under
// MaxMessageSize and hands each to write, encoding at the session's
// negotiated version (v5 sessions append the trailing trace-ID block,
// budgeted into the chunk size). Caller holds a.mu.
func (a *Agent) sendBatchLocked(rs []Report, write func([]byte) error) error {
	if len(rs) == 0 {
		return nil
	}
	tracePer := 0
	if a.Version() >= ProtoV5 {
		tracePer = 8
	}
	for start := 0; start < len(rs); {
		// Grow the chunk until the next report would overflow the frame.
		body := []byte{TypeReportBatch, 0, 0, 0, 0}
		end := start
		for ; end < len(rs); end++ {
			next := appendReportBody(body, rs[end])
			if len(next)+tracePer*(end-start+1) > MaxMessageSize && end > start {
				break
			}
			body = next
			if len(body)+tracePer*(end-start+1) > MaxMessageSize {
				// A single oversized report: let WriteMessage reject it.
				end++
				break
			}
		}
		if tracePer > 0 {
			for i := start; i < end; i++ {
				body = binary.BigEndian.AppendUint64(body, rs[i].Trace)
			}
		}
		binary.BigEndian.PutUint32(body[1:5], uint32(end-start))
		if err := write(body); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// Ping sends a keepalive frame, resetting the controller's read
// deadline for this connection. Agents that can go quiet longer than
// Controller.ReadTimeout (listen-only fence nodes) call it
// periodically; agents that report continuously never need to.
func (a *Agent) Ping() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.writeBody(MarshalPing())
}

// Close terminates the agent's connection.
func (a *Agent) Close() error { return a.conn.Close() }
