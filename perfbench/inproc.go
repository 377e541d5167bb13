package main

import (
	"sync"
	"time"

	prism "repro"
	"repro/internal/sim"
)

// window is the length of one wall-clock sample of a measured phase.
// The end-to-end wall metrics are medians over a phase's windows, so a
// host hiccup moves a window or two, not the run's figure.
const window = time.Second

// phase is what one measured phase observed from the client side.
type phase struct {
	ops  int64
	wall time.Duration
	vlat [numOpKinds][]int64 // per-op virtual latency, ns (in-process only)
	wlat []int64             // per-op client wall latency (wire: write to reply), ns
	cuts []int               // one client's len(wlat) at the end of each window so far
	// Per whole window common to all clients: completed ops per second
	// (thousands) and the wall latency p50/p99 of those ops, ns.
	winKops, winP50, winP99 []float64
}

// tick closes every window that ended by now; call it before recording
// an op that completed at now.
func (p *phase) tick(start, now time.Time) {
	for now.Sub(start) >= time.Duration(len(p.cuts)+1)*window {
		p.cuts = append(p.cuts, len(p.wlat))
	}
}

// mergePhases joins the clients' phases into one, with the per-window
// figures of every window all clients have closed.
func mergePhases(outs []phase, wall time.Duration) phase {
	n := len(outs[0].cuts)
	for i := range outs {
		n = min(n, len(outs[i].cuts))
	}
	p := phase{wall: wall}
	for w := 0; w < n; w++ {
		var lat []int64
		for i := range outs {
			lo := 0
			if w > 0 {
				lo = outs[i].cuts[w-1]
			}
			lat = append(lat, outs[i].wlat[lo:outs[i].cuts[w]]...)
		}
		p.winKops = append(p.winKops, float64(len(lat))/window.Seconds()/1e3)
		p.winP50 = append(p.winP50, pct(lat, 50))
		p.winP99 = append(p.winP99, pct(lat, 99))
	}
	for i := range outs {
		q := &outs[i]
		p.ops += q.ops
		for k := range p.vlat {
			p.vlat[k] = append(p.vlat[k], q.vlat[k]...)
		}
		p.wlat = append(p.wlat, q.wlat...)
	}
	return p
}

// clocks are every virtual clock one client thread drives: the router
// thread's makespan clock and its pinned core thread on each shard.
type clocks []*sim.Clock

func threadClocks(st *prism.Store, i int) clocks {
	cs := clocks{st.Thread(i).Clk}
	for j := 0; j < st.NumShards(); j++ {
		cs = append(cs, st.Shard(j).Thread(i).Clk)
	}
	return cs
}

// align moves every clock of the thread to the latest of them and
// returns it. One application thread runs its ops one after another, so
// an op on one shard must not start before the previous op on another
// shard has finished.
func (cs clocks) align(to int64) int64 {
	for _, c := range cs {
		to = max(to, c.Now())
	}
	for _, c := range cs {
		c.AdvanceTo(to)
	}
	return to
}

// barrier keeps closed-loop thread clocks in step: every round, all
// threads arrive and leave at the latest arrival clock, so one thread's
// backlog is never seen as queueing by the other's device models. The
// last arrival also decides, for everyone, whether the phase is over.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	waiting  int
	gen      uint64
	curMax   int64
	relMax   int64
	relStop  bool
	deadline time.Time
}

func newBarrier(n int, deadline time.Time) *barrier {
	b := &barrier{n: n, deadline: deadline}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await(now int64) (release int64, stop bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.curMax = max(b.curMax, now)
	b.waiting++
	if b.waiting == b.n {
		b.relMax, b.relStop = b.curMax, !time.Now().Before(b.deadline)
		b.curMax, b.waiting = 0, 0
		b.gen++
		b.cond.Broadcast()
	} else {
		// A generation cannot complete again before every sleeper of
		// this one has re-arrived, so relMax is still this generation's.
		for gen := b.gen; gen == b.gen; {
			b.cond.Wait()
		}
	}
	return b.relMax, b.relStop
}

// roundOps is how many ops a thread runs between barriers.
const roundOps = 32

// runClosed drives the store in-process from one goroutine per client
// thread until dur has passed, checking every output. Each op's virtual
// latency is the advance of the thread's aligned clocks.
func runClosed(st *prism.Store, w *workload, ck *checker, seed uint64, stream int, dur time.Duration, tr *tracer) phase {
	outs := make([]phase, clients)
	logs := make([]*spanLog, clients)
	for i := range logs {
		logs[i] = tr.log()
	}
	start := time.Now()
	bar := newBarrier(clients, start.Add(dur))
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := &outs[i]
			th := st.Thread(i)
			cs := threadClocks(st, i)
			gen := newGenerator(w, seed, stream, i)
			sl := logs[i]
			key := make([]byte, 0, keyLen)
			val := make([]byte, w.valueSize)
			var sc scanCheck
			v0 := cs.align(0)
			for {
				for r := 0; r < roundOps; r++ {
					o := gen.next()
					key = appendKey(key[:0], o.id)
					req, call := sl.newID(), sl.newID()
					opStart := time.Now()
					var w0, w1 time.Time
					var name string
					switch o.kind {
					case opGet:
						name = "store.get"
						lo := ck.low(o.id)
						w0 = time.Now()
						v, err := th.Get(key)
						w1 = time.Now()
						ck.read(o.id, v, err, lo)
					case opPut:
						name = "store.put"
						ver := ck.issue(o.id)
						encodeValue(val, o.id, ver)
						w0 = time.Now()
						err := th.Put(key, val)
						w1 = time.Now()
						ck.ack(o.id, ver, err)
					case opScan:
						name = "store.scan"
						ck.scan(&sc, o.id, o.scanLen)
						w0 = time.Now()
						err := th.Scan(key, o.scanLen, func(kv prism.KV) bool {
							sc.kv(kv.Key, kv.Value)
							return true
						})
						w1 = time.Now()
						sc.done(err)
					}
					v1 := cs.align(v0)
					sl.add(call, name, req, req, w0, w1, v0, v1)
					sl.add(req, "op", 0, req, opStart, time.Now(), v0, v1)
					out.tick(start, w1)
					out.vlat[o.kind] = append(out.vlat[o.kind], v1-v0)
					out.wlat = append(out.wlat, w1.Sub(w0).Nanoseconds())
					out.ops++
					v0 = v1
				}
				rel, stop := bar.await(v0)
				v0 = cs.align(rel)
				if stop {
					break
				}
			}
		}(i)
	}
	wg.Wait()
	return mergePhases(outs, time.Since(start))
}
