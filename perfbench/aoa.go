package main

import (
	"fmt"
	"math"
	"time"

	"secureangle"
	"secureangle/internal/antenna"
	"secureangle/internal/cmat"
	"secureangle/internal/core"
	"secureangle/internal/detect"
	"secureangle/internal/dsp"
	"secureangle/internal/geom"
	"secureangle/internal/music"
	"secureangle/internal/ofdm"
	"secureangle/internal/pool"
	"secureangle/internal/radio"
	"secureangle/internal/signature"
	"secureangle/internal/testbed"
)

// The ap-aoa workload: one AP with the default secureangle.New
// configuration (8-element circular array, auto-MUSIC) runs its
// per-packet pipeline, core.AP.ProcessStreams, on captures of the 20
// Figure-4 clients. The captures are synthesised with AP.Receive in
// set-up, so the testbed's noise generation stays out of the timed
// region; each call gets a fresh copy because ProcessStreams works in
// place, and that copy is made outside both the clock and the CPU
// accounting.

const (
	// aoaPacketsPerClient captures per Figure-4 client: 80 captures,
	// ~21 MB, cycled through the timed region. They stay live through
	// it and are part of peak_rss_mb (README.md).
	aoaPacketsPerClient = 4
	// aoaMinWithin is the accuracy floor of the correctness check: the
	// paper reports ~0.75 of bearings within 2.5 degrees.
	aoaMinWithin = 0.6
	// aoaRSSOps: peak_rss_mb is read once the timed region has processed
	// this many packets, a fixed amount of work, before the latency
	// buffer would have to grow.
	aoaRSSOps = 1 << 14
)

// aoaCapture is one synthesised packet and its ground-truth bearing.
type aoaCapture struct {
	streams [][]complex128
	truth   float64
}

// aoaState is a ready ap-aoa workload.
type aoaState struct {
	ap        *core.AP
	caps      []aoaCapture
	receiveUS float64 // mean AP.Receive time per capture in set-up
}

// aoaSetup calibrates the AP and synthesises every capture.
func aoaSetup(seed int64) (*aoaState, error) {
	node, err := secureangle.New(secureangle.WithName("ap1"), secureangle.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	st := &aoaState{ap: node.AP()}
	payload := []byte("uplink")
	var recv time.Duration
	for _, c := range testbed.Clients() {
		truth := testbed.GroundTruth(st.ap.FE.Pos, c.Pos)
		for p := 0; p < aoaPacketsPerClient; p++ {
			bb, err := testbed.FrameBaseband(testbed.UplinkFrame(c.ID, uint16(p), payload), ofdm.QPSK)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			streams, err := st.ap.Receive(c.Pos, bb)
			recv += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("client %d packet %d: %w", c.ID, p, err)
			}
			st.caps = append(st.caps, aoaCapture{streams: streams, truth: truth})
		}
	}
	st.receiveUS = float64(recv) / 1e3 / float64(len(st.caps))
	return st, nil
}

// captureMB is the size of the captures' samples in MB.
func (st *aoaState) captureMB() float64 {
	n := 0
	for _, c := range st.caps {
		for _, s := range c.streams {
			n += len(s)
		}
	}
	return float64(n) * 16 / (1 << 20)
}

// newWork allocates one capture-shaped buffer.
func (st *aoaState) newWork() [][]complex128 {
	work := make([][]complex128, len(st.caps[0].streams))
	for a, s := range st.caps[0].streams {
		work[a] = make([]complex128, len(s))
	}
	return work
}

// copyStreams copies src into dst, which has the same shape.
func copyStreams(dst, src [][]complex128) {
	for a := range src {
		copy(dst[a], src[a])
	}
}

// aoaReference is the first pass over every capture: the bearings and
// spectra later passes and the layer replay must reproduce.
type aoaReference struct {
	bearing []float64
	spectra [][]float64
	starts  []int
	ok      []bool
	within  float64 // share of captures within 2.5 degrees of truth
	failed  int64
}

// reference runs one untimed pass. It doubles as the warm-up.
func (st *aoaState) reference() *aoaReference {
	ref := &aoaReference{
		bearing: make([]float64, len(st.caps)),
		spectra: make([][]float64, len(st.caps)),
		starts:  make([]int, len(st.caps)),
		ok:      make([]bool, len(st.caps)),
	}
	work := st.newWork()
	within := 0
	for i, c := range st.caps {
		copyStreams(work, c.streams)
		rep, err := st.ap.ProcessStreams(work)
		if err != nil {
			ref.failed++
			continue
		}
		ref.ok[i] = true
		ref.bearing[i] = rep.BearingDeg
		ref.spectra[i] = rep.Spectrum.P
		ref.starts[i] = rep.Detection.Start
		if geom.AngularDistDeg(rep.BearingDeg, c.truth) <= 2.5 {
			within++
		}
	}
	ref.within = float64(within) / float64(len(st.caps))
	return ref
}

// aoaRegion is what one timed region measured.
type aoaRegion struct {
	lat      latencies
	cpu      time.Duration
	wall     time.Duration
	failed   int64
	mismatch int64   // bearings that differ from the reference pass
	rssMB    float64 // peak RSS once aoaRSSOps packets were processed
}

// timed processes captures round-robin for d of measured wall time.
// Each call gets a fresh copy of its capture, made just before the call
// (so the samples are cache-warm, as a receive path leaves them) and
// outside both the clock and the CPU reading.
func (st *aoaState) timed(ref *aoaReference, d time.Duration, work [][]complex128) *aoaRegion {
	reg := &aoaRegion{lat: make(latencies, 0, 1<<17)}
	for i := 0; reg.wall < d; i++ {
		idx := i % len(st.caps)
		copyStreams(work, st.caps[idx].streams)
		c0, t0 := cpuTime(), time.Now()
		rep, err := st.ap.ProcessStreams(work)
		lat := time.Since(t0)
		reg.cpu += cpuTime() - c0
		reg.lat = append(reg.lat, lat)
		reg.wall += lat
		switch {
		case err != nil:
			reg.failed++
		case !ref.ok[idx] || rep.BearingDeg != ref.bearing[idx]:
			reg.mismatch++
		}
		if len(reg.lat) == aoaRSSOps {
			reg.rssMB = peakRSSMB()
		}
	}
	return reg
}

func runAoA(cfg config) (*result, error) {
	printMeta(cfg)
	st, setupS, err := timeSetups(func() (*aoaState, error) { return aoaSetup(cfg.seed) }, func(*aoaState) {})
	if err != nil {
		return nil, err
	}
	ref := st.reference()
	work := st.newWork()
	res := &result{Attempted: int64(len(st.caps)), Failed: ref.failed}
	fmt.Printf("# ap-aoa captures=%d capture_mb=%.1f within_2.5deg_frac=%.6f receive_us=%.2f\n",
		len(st.caps), st.captureMB(), ref.within, st.receiveUS)

	// One timed region. The program's instruments and the runtime's
	// allocation counters, read around it, feed the traced breakdown.
	settle()
	inBefore, memBefore := snapshotInstruments(), readMem()
	reg := st.timed(ref, cfg.seconds, work)
	inAfter, memAfter := snapshotInstruments(), readMem()
	p50, p90, p99, mean := reg.lat.summary()
	res.Attempted += int64(len(reg.lat))
	res.Failed += reg.failed + reg.mismatch
	res.Correct = res.Failed == 0 && ref.within >= aoaMinWithin
	fmt.Printf("# ap-aoa samples=%d p50_us=%.2f mean_us=%.2f p99_us=%.2f mismatched=%d\n", len(reg.lat), p50, mean, p99, reg.mismatch)
	if reg.rssMB == 0 {
		return res, fmt.Errorf("timed region processed %d packets, fewer than the %d peak_rss_mb is read at", len(reg.lat), aoaRSSOps)
	}
	if !cfg.trace {
		res.set("setup_s", setupS, "s")
		res.set("mean_us", mean, "us")
		res.set("cpu_us_per_op", float64(reg.cpu)/1e3/float64(len(reg.lat)), "us")
		res.set("peak_rss_mb", reg.rssMB, "MB")
		return res, nil
	}

	n := float64(len(reg.lat))
	allocs := float64(memAfter.Mallocs - memBefore.Mallocs)
	bytes := float64(memAfter.TotalAlloc - memBefore.TotalAlloc)
	hits := inAfter.delta(inBefore, "secureangle_core_scratch_hits_total{}")
	misses := inAfter.delta(inBefore, "secureangle_core_scratch_misses_total{}")
	lay, err := st.replay(ref)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, k := range aoaLayers {
		sum += lay[k]
	}
	m := layerMetrics{}
	for k, v := range lay {
		m[k] = v
	}
	m["core.stage_detect_us"] = inAfter.histMeanUS(inBefore, `secureangle_core_stage_seconds{stage="detect"}`)
	m["core.stage_estimate_us"] = inAfter.histMeanUS(inBefore, `secureangle_core_stage_seconds{stage="estimate"}`)
	m["core.allocs_per_op"] = perOp(allocs, n)
	m["core.bytes_per_op"] = perOp(bytes, n)
	m["core.scratch_miss_frac"] = perOp(misses, hits+misses)
	m["layer_sum_ratio"] = sum / mean
	m["radio.receive_us"] = st.receiveUS
	m["within_2.5deg_frac"] = ref.within
	m["e2e.p50_us"] = p50
	m["e2e.p90_us"] = p90
	m["e2e.p99_us"] = p99
	m["e2e.ops_per_s"] = float64(len(reg.lat)) / reg.wall.Seconds()
	m["e2e.samples"] = float64(len(reg.lat))
	m["go.gc_cycles"] = float64(memAfter.NumGC - memBefore.NumGC)
	m.fill(res)
	return res, nil
}

// aoaLayers are the replayed stages whose sum layer_sum_ratio compares
// with the end-to-end mean.
var aoaLayers = []string{
	"radio.calibrate_us", "detect.find_us", "music.covariance_us",
	"cmat.eig_us", "music.spectrum_us", "signature.extract_us",
}

// replay runs every capture through the pipeline's stages one public
// call at a time, timing each, and checks that the replay reproduces
// the reference pass's detection and spectrum. The bearing pick (a
// peak scan over the spectrum) has no public entry point and stays in
// the unexplained remainder of layer_sum_ratio.
func (st *aoaState) replay(ref *aoaReference) (map[string]float64, error) {
	ap := st.ap
	offsets := ap.Offsets()
	detCfg := core.DefaultConfig().Detector
	grid := ap.Grid()
	mf := antenna.NewManifold(ap.FE.Array, grid)
	arena := pool.NewArena(1<<14, 1<<12, 32)
	var (
		cov  cmat.Matrix
		ws   cmat.EigWorkspace
		dets []detect.Detection
		tot  [6]time.Duration
	)
	ps := &music.Pseudospectrum{AnglesDeg: grid, P: make([]float64, len(grid))}
	work := st.newWork()
	n := 0
	for pass := 0; pass < 2; pass++ {
		for i, c := range st.caps {
			if !ref.ok[i] {
				continue
			}
			copyStreams(work, c.streams)
			arena.Reset()
			t0 := time.Now()
			radio.ApplyCalibration(work, offsets)
			t1 := time.Now()
			dets = detect.FindArena(work[0], detCfg, arena, dets[:0])
			if len(dets) == 0 {
				return nil, fmt.Errorf("replay: capture %d not detected", i)
			}
			win, ok := detect.ExtractAlignedArena(work, dets[0], packetExtent(work[0], dets[0].Start, arena), arena)
			t2 := time.Now()
			if !ok {
				return nil, fmt.Errorf("replay: capture %d window out of range", i)
			}
			r, err := music.CovarianceInto(&cov, win)
			t3 := time.Now()
			if err != nil {
				return nil, err
			}
			eig, err := ws.HermEig(r)
			t4 := time.Now()
			if err != nil {
				return nil, err
			}
			if _, err := (&music.MUSIC{}).PseudospectrumFromEigInto(ps, eig, mf, len(win[0])); err != nil {
				return nil, err
			}
			t5 := time.Now()
			_ = signature.FromPseudospectrum(ps)
			t6 := time.Now()
			for k, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3), t5.Sub(t4), t6.Sub(t5)} {
				tot[k] += d
			}
			n++
			if dets[0].Start != ref.starts[i] || !sameFloats(ps.P, ref.spectra[i]) {
				return nil, fmt.Errorf("replay: capture %d diverged from ProcessStreams", i)
			}
		}
	}
	out := map[string]float64{}
	for k, name := range aoaLayers {
		out[name] = float64(tot[k]) / 1e3 / float64(n)
	}
	return out, nil
}

// sameFloats reports bit-for-bit equality.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// packetExtent is the packet-length rule of core's pipeline (the
// unexported core.packetExtent), reproduced so the replay extracts the
// same window: from the detected start to where the one-symbol
// smoothed power falls 13 dB below the packet head.
func packetExtent(x []complex128, start int, ar *pool.Arena) int {
	const win = 80
	if start >= len(x) {
		return 0
	}
	rest := x[start:]
	if len(rest) <= win {
		return len(rest)
	}
	pow := ar.Float(len(rest))
	for i, v := range rest {
		pow[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	sm := dsp.MovingSumRealInto(ar.Float(len(rest)-win+1), pow, win)
	ref := 0.0
	for i := 0; i < len(sm) && i < 400; i++ {
		ref = math.Max(ref, sm[i])
	}
	if ref == 0 {
		return len(rest)
	}
	end := len(sm)
	for i := 160; i < len(sm); i++ {
		if sm[i] < ref/20 {
			end = i
			break
		}
	}
	return min(end+win, len(rest))
}
