package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	prism "repro"
	"repro/internal/server"
)

const (
	// setupRuns is how many times a run opens and loads a store; setup_s
	// is their median and the last one is measured.
	setupRuns = 5
	// warmup runs the workload's mix in-process before measuring, so the
	// value cache and the write buffers reach their steady state. It
	// never touches the server or the async pipeline.
	warmup = time.Second
	// tracedFor caps the traced part of a traced run, which keeps every
	// span in memory.
	tracedFor = 2 * time.Second
)

// metric is one printed number; info metrics are printed but left out
// of the JSON result.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
	info  bool
}

type result struct {
	metrics   []metric
	attempted int64
	failed    int64
	fails     [numFailClasses]int64
	firstErr  error
}

// rig is one opened store, with its RESP server for wire workloads.
type rig struct {
	st       *prism.Store
	srv      *server.Server
	addr     string
	serveErr chan error
}

func options(w *workload) prism.Options {
	perShard := int64(w.keys) * int64(w.valueSize) / int64(w.shards)
	clamp := func(v, lo, hi int64) int64 { return min(max(v, lo), hi) / 16 * 16 }
	return prism.Options{
		NumThreads:        clients,
		PWBBytesPerThread: int(clamp(perShard*16/100/clients, 64<<10, 1<<30)),
		HSITCapacity:      2*w.keys + 1024,
		NumSSDs:           2,
		SSDBytes:          int64(w.ssdFactor) * perShard / 2, // over two devices
		ChunkSize:         int(clamp(perShard/256, 16<<10, 512<<10)),
		SVCBytes:          w.svcBytes / int64(w.shards),
		Shards:            w.shards,
	}
}

// open builds a store (and server) and loads keys 0..keys-1 at version
// 1, two loader threads writing their own stripes.
func open(w *workload, sl *spanLog) (*rig, time.Duration, error) {
	t0 := time.Now()
	st, err := prism.Open(options(w))
	if err != nil {
		return nil, 0, err
	}
	r := &rig{st: st}
	if w.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.Close()
			return nil, 0, err
		}
		r.srv, r.addr, r.serveErr = server.New(st, server.Config{}), ln.Addr().String(), make(chan error, 1)
		go func() { r.serveErr <- r.srv.Serve(ln) }()
	}
	t1 := time.Now()
	sl.add(sl.newID(), "setup.open", 0, 0, t0, t1, -1, -1)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := st.Thread(i)
			key := make([]byte, 0, keyLen)
			val := make([]byte, w.valueSize)
			for id := i; id < w.keys; id += clients {
				encodeValue(val, id, 1)
				if err := th.Put(appendKey(key[:0], id), val); err != nil {
					errs[i] = fmt.Errorf("load key %d: %w", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	t2 := time.Now()
	sl.add(sl.newID(), "setup.load", 0, 0, t1, t2, -1, -1)
	if err := errors.Join(errs...); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, t2.Sub(t0), nil
}

// stopServer shuts the server down and waits for it.
func (r *rig) stopServer() error {
	if r.srv == nil {
		return nil
	}
	err := r.srv.Shutdown(10 * time.Second)
	if serr := <-r.serveErr; err == nil {
		err = serr
	}
	r.srv = nil
	return err
}

func (r *rig) close() error {
	return errors.Join(r.stopServer(), r.st.Close())
}

// waitIdle returns once the server has closed every client connection,
// so no command is in flight on the store threads.
func (r *rig) waitIdle() error {
	if r.srv == nil {
		return nil
	}
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if v, ok := r.st.Metrics().Value("server.connections"); ok && v == 0 {
			return nil
		}
	}
	return errors.New("server connections did not close")
}

// clockMarks reads every thread's virtual clock at a quiescent point,
// after folding in whatever its async pipeline has completed.
func clockMarks(st *prism.Store, sl *spanLog) []int64 {
	marks := make([]int64, st.NumThreads())
	for i := range marks {
		th := st.Thread(i)
		t0 := time.Now()
		th.Flush()
		sl.add(sl.newID(), "store.flush", 0, 0, t0, time.Now(), -1, -1)
		marks[i] = th.Clk.Now()
	}
	return marks
}

func makespan(before, after []int64) int64 {
	var m int64
	for i := range after {
		m = max(m, after[i]-before[i])
	}
	return m
}

// measured is one measured phase with the store state around it.
type measured struct {
	phase
	vspan         int64 // virtual makespan, ns
	before, after prism.Metrics
	mem0, mem1    runtime.MemStats
}

func measure(r *rig, w *workload, ck *checker, seed uint64, stream int, dur time.Duration, tr *tracer) (measured, error) {
	var m measured
	var sl *spanLog
	if tr != nil {
		sl = tr.log()
	}
	runtime.ReadMemStats(&m.mem0)
	m.before = r.st.Metrics()
	marks := clockMarks(r.st, nil)
	var err error
	if w.wire {
		m.phase, err = runPipelined(r.addr, w, ck, seed, stream, dur, tr)
		err = errors.Join(err, r.waitIdle())
	} else {
		m.phase = runClosed(r.st, w, ck, seed, stream, dur, tr)
	}
	m.vspan = makespan(marks, clockMarks(r.st, sl))
	m.after = r.st.Metrics()
	runtime.ReadMemStats(&m.mem1)
	return m, err
}

func run(w *workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	base := time.Now()
	var tr *tracer
	var sl *spanLog
	if traced {
		tr = newTracer(base)
		sl = tr.log()
	}
	var (
		r      *rig
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			r = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var log *spanLog
		if i == setupRuns-1 {
			log = sl
		}
		var d time.Duration
		var err error
		if r, d, err = open(w, log); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer r.close()

	ck := newChecker(w.keys, w.valueSize)
	runClosed(r.st, w, ck, seed, 0, warmup, nil)
	// Untraced, the whole measured phase gives the end-to-end metrics.
	// Traced, all but its last tracedFor runs untraced and gives the
	// per-layer counters; the rest records spans, and the gap between
	// the two parts is the tracing overhead.
	durA := dur
	if traced {
		durA = dur - min(dur/2, tracedFor)
	}
	a, err := measure(r, w, ck, seed, 1, durA, nil)
	if err != nil {
		return nil, err
	}
	var b measured
	if traced {
		if b, err = measure(r, w, ck, seed, 2, dur-durA, tr); err != nil {
			return nil, err
		}
	}
	if err := r.stopServer(); err != nil {
		return nil, err
	}

	t0 := time.Now()
	r.st.Crash()
	t1 := time.Now()
	sl.add(sl.newID(), "recover.crash", 0, 0, t0, t1, -1, -1)
	rep, err := r.st.Recover()
	t2 := time.Now()
	sl.add(sl.newID(), "recover.recover", 0, 0, t1, t2, 0, rep.VirtualNS)
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	verify(r.st, ck)
	sl.add(sl.newID(), "verify", 0, 0, t2, time.Now(), -1, -1)

	res := &result{attempted: ck.attempted.Load(), failed: ck.failed()}
	if e := ck.firstErr.Load(); e != nil {
		res.firstErr = *e
	}
	for c := range res.fails {
		res.fails[c] = ck.fails[c].Load()
	}
	if traced {
		res.metrics = perLayer(w, &a, &b, tr, rep)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		res.metrics = append(res.metrics, metric{name: "trace.file", info: true, note: path})
	} else {
		res.metrics = endToEnd(w, &a, setups, rep)
	}
	res.metrics = append(res.metrics, metric{name: "failed_ratio", value: ratio(float64(res.failed), float64(res.attempted)),
		unit: "ratio", info: true, note: fmt.Sprintf("failed %d of %d checked ops", res.failed, res.attempted)})
	return res, nil
}

// verify sweeps every key after recovery; each must hold its last
// acked version.
func verify(st *prism.Store, ck *checker) {
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := st.Thread(i)
			key := make([]byte, 0, keyLen)
			for id := i; id < len(ck.acked); id += clients {
				v, err := th.Get(appendKey(key[:0], id))
				ck.final(id, v, err)
			}
		}(i)
	}
	wg.Wait()
}

func endToEnd(w *workload, a *measured, setups []float64, rep prism.RecoveryReport) []metric {
	d := a.after.Delta(a.before)
	ms := []metric{
		{name: "setup_s", value: median(setups), unit: "s", note: fmt.Sprintf("median of %d: %s", len(setups), fmtList(setups))},
		{name: "vkops", value: ratio(float64(a.ops), float64(a.vspan)) * 1e6, unit: "kop/s", note: fmt.Sprintf("%d ops over %.3f virtual ms", a.ops, float64(a.vspan)/1e6)},
		{name: "wall_kops", value: winMedian(a.winKops, ratio(float64(a.ops), a.wall.Seconds())/1e3), unit: "kop/s",
			note: fmt.Sprintf("median of %d windows; whole run %d ops over %.3f s", len(a.winKops), a.ops, a.wall.Seconds())},
		{name: "wall_p50_us", value: winMedian(a.winP50, pct(a.wlat, 50)) / 1e3, unit: "us",
			note: fmt.Sprintf("median of %d windows; whole run %.3f, n=%d", len(a.winP50), pct(a.wlat, 50)/1e3, len(a.wlat))},
		{name: "wall_p99_us", value: winMedian(a.winP99, pct(a.wlat, 99)) / 1e3, unit: "us",
			note: fmt.Sprintf("median of %d windows; whole run %.3f, n=%d", len(a.winP99), pct(a.wlat, 99)/1e3, len(a.wlat))},
		{name: "waf", value: ratio(d.Sum("ssd.bytes_written"), d.Sum("core.user_bytes")), unit: "ratio",
			note: fmt.Sprintf("%.0f SSD bytes / %.0f user bytes", d.Sum("ssd.bytes_written"), d.Sum("core.user_bytes"))},
		{name: "recovery_ms", value: float64(rep.VirtualNS) / 1e6, unit: "ms", note: "virtual"},
		{name: "peak_rss_mb", value: peakRSS(), unit: "MB"},
		{name: "nvm_bytes_per_key", value: ratio(a.after.Sum("hsit.space_bytes")+a.after.Sum("index.space_bytes"), a.after.Sum("core.keys")), unit: "B"},
	}
	ms = append(ms, vlatPercentiles(w, a)...)
	return ms
}

// vlatPercentiles are the per-op-kind virtual latency percentiles (the
// paper's Table 3 numbers), printed with their sample counts. They are
// left out of the JSON result: device latencies in virtual time are
// constants, so a median often reads the same on every run.
func vlatPercentiles(w *workload, a *measured) []metric {
	var ms []metric
	add := func(name string, p50, p99 float64, n int64) {
		note := fmt.Sprintf("n=%d", n)
		ms = append(ms,
			metric{name: name + "_p50_us", value: p50 / 1e3, unit: "us", info: true, note: note},
			metric{name: name + "_p99_us", value: p99 / 1e3, unit: "us", info: true, note: note})
	}
	if w.wire {
		// Lifetime percentiles: nothing uses the async pipeline before
		// the first measured phase.
		h := hist(a.after, "core.async_latency")
		add("vlat_async", float64(h.P50), float64(h.P99), h.Count)
	}
	for k := opKind(0); k < numOpKinds; k++ {
		if n := len(a.vlat[k]); n > 0 {
			add("vlat_"+opNames[k], pct(a.vlat[k], 50), pct(a.vlat[k], 99), int64(n))
		}
	}
	return ms
}

// pct is the p-th percentile of xs, interpolated between order
// statistics. It sorts xs in place.
func pct(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	pos := p / 100 * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	return float64(xs[i]) + (pos-float64(i))*float64(xs[i+1]-xs[i])
}

// winMedian is the median of a phase's per-window figures, or whole
// when the phase was shorter than one window.
func winMedian(wins []float64, whole float64) float64 {
	if len(wins) == 0 {
		return whole
	}
	return median(wins)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// peakRSS is the process's peak resident set (VmHWM) in MB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
