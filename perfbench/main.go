// Command perfbench is the repository's benchmark: four workloads that
// together cover SecureAngle's path from an AP's I/Q samples to a
// fused controller decision, a countermeasure directive and its ack,
// and the journal forensics read back afterwards. README.md in this
// directory gives the rationale for every workload and metric.
//
// Each invocation runs one workload in its own process:
//
//	perfbench -workload ap-aoa|fleet-b1|fleet-b64|incident \
//	          -seed N -seconds S -trace 0|1 -work DIR
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// prints the per-layer breakdown. Metadata goes to the lines before the
// result; the last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// claimSeed is the second seed documented for checking a performance
// claim on inputs not used while the change was written.
const claimSeed = 7

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory for journal trees
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records one metric.
func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*result, error){
	"ap-aoa":    runAoA,
	"fleet-b1":  func(cfg config) (*result, error) { return runFleet(cfg, 1) },
	"fleet-b64": func(cfg config) (*result, error) { return runFleet(cfg, 64) },
	"incident":  runIncident,
}

func main() {
	var cfg config
	var seconds float64
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ap-aoa, fleet-b1, fleet-b64 or incident")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&seconds, "seconds", 10, "length of the timed region in seconds")
	flag.IntVar(&traced, "trace", 0, "1 prints the per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "perfbench"), "scratch directory for journal trees")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	// One P: every goroutine of the program under test shares one
	// thread, so a cross-goroutine handoff never has to wake the second
	// vCPU. On a virtual machine that wake-up is a VM exit whose latency
	// follows the host's load, and with two Ps it made the fleet
	// workloads' latency swing by up to 2x between runs of the same
	// code. The figures are one core's.
	runtime.GOMAXPROCS(1)
	cfg.trace = traced != 0
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", cfg.workload)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg.work = work
	res, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printMeta prints the run's host and input description: what a reader
// needs to compare two result lines.
func printMeta(cfg config) {
	fmt.Printf("# workload=%s seed=%d claim_seed=%d trace=%v seconds=%g\n",
		cfg.workload, cfg.seed, claimSeed, cfg.trace, cfg.seconds.Seconds())
	fmt.Printf("# host gomaxprocs=%d numcpu=%d cpu=%q go=%s journal_fs=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), fsType(cfg.work))
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns the heap's free pages to the kernel and restarts
// the kernel's peak-RSS count (VmHWM) from the current RSS, so that
// peakRSSMB covers only what follows: the ready workload and its timed
// region, not the garbage of the repeated set-ups.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS, in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// Each workload sets itself up at least setupRuns times and for at
// least setupTime in total, and setup_s is the median. A 30 ms fleet
// set-up samples the host's load at one moment; spread over a second
// and more, the median follows the code rather than that moment.
const (
	setupRuns = 9
	setupTime = 1500 * time.Millisecond
)

// timeSetups runs setup repeatedly, tearing each instance down and
// collecting its garbage before the next is built, and returns the last
// instance with the median set-up time. It then resets the peak-RSS
// count.
func timeSetups[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	var times []float64
	var total time.Duration
	for i := 0; i < setupRuns || total < setupTime; i++ {
		if i > 0 {
			// Drop the previous instance so the collector frees it
			// before the next is built.
			teardown(cur)
			var zero T
			cur = zero
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		cur = v
	}
	fmt.Printf("# setups=%d setup_total_s=%.3f\n", len(times), total.Seconds())
	if err := resetPeakRSS(); err != nil {
		return cur, 0, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return cur, median(times), nil
}
