package main

import (
	"errors"
	"sync/atomic"

	prism "repro"
)

// failClass is one way an output can be wrong.
type failClass int

const (
	failError     failClass = iota // the store or server reported an error
	failCorrupt                    // wrong size or checksum mismatch
	failWrongKey                   // intact value of another key
	failStale                      // version older than the last ack at issue time
	failFuture                     // version newer than any write issued
	failMissing                    // key not found, though it was loaded
	failScanShort                  // scan returned fewer or more keys than exist
	failScanOrder                  // scan keys not contiguous and ascending
	failLost                       // after recovery, not at its last acked version
	numFailClasses
)

var failNames = [numFailClasses]string{
	"error", "corrupt", "wrong_key", "stale", "future", "missing",
	"scan_short", "scan_order", "lost_write",
}

// checker holds the expected state of every key and counts attempted
// and failed operations. Each key has one writer (its stripe's client),
// which calls issue before sending a write and ack once it is
// acknowledged; so a read issued when the key's last ack was lo may see
// any version from lo up to the last issued one, and nothing else.
type checker struct {
	size      int // value size
	issued    []atomic.Uint64
	acked     []atomic.Uint64
	attempted atomic.Int64
	fails     [numFailClasses]atomic.Int64
	firstErr  atomic.Pointer[error] // the first error reported, for the log
}

// newChecker expects keys 0..keys-1 loaded at version 1.
func newChecker(keys, size int) *checker {
	c := &checker{size: size, issued: make([]atomic.Uint64, keys), acked: make([]atomic.Uint64, keys)}
	for i := range c.issued {
		c.issued[i].Store(1)
		c.acked[i].Store(1)
	}
	return c
}

func (c *checker) fail(k failClass) bool {
	c.fails[k].Add(1)
	return false
}

// issue returns the version of the next write to id.
func (c *checker) issue(id int) uint64 { return c.issued[id].Add(1) }

// opError counts an op that failed with err.
func (c *checker) opError(err error) bool {
	c.firstErr.CompareAndSwap(nil, &err)
	return c.fail(failError)
}

// ack records the outcome of a write of version ver to id.
func (c *checker) ack(id int, ver uint64, err error) bool {
	c.attempted.Add(1)
	if err != nil {
		return c.opError(err)
	}
	c.acked[id].Store(ver)
	return true
}

// low is the oldest version a read of id issued now may return.
func (c *checker) low(id int) uint64 { return c.acked[id].Load() }

// value checks one value claimed for id against the version window
// [lo, last issued], without counting an attempt.
func (c *checker) value(id int, v []byte, lo uint64) bool {
	gid, ver, ok := decodeValue(v, c.size)
	switch {
	case !ok:
		return c.fail(failCorrupt)
	case gid != id:
		return c.fail(failWrongKey)
	case ver < lo:
		return c.fail(failStale)
	case ver > c.issued[id].Load():
		return c.fail(failFuture)
	}
	return true
}

// read checks a point read of id issued when its last ack was lo.
func (c *checker) read(id int, v []byte, err error, lo uint64) bool {
	c.attempted.Add(1)
	switch {
	case errors.Is(err, prism.ErrNotFound), err == nil && v == nil:
		return c.fail(failMissing)
	case err != nil:
		return c.opError(err)
	}
	return c.value(id, v, lo)
}

// scanCheck follows one scan of want keys from start. lo holds the last
// ack of each expected key at issue time.
type scanCheck struct {
	c      *checker
	start  int
	want   int
	got    int
	bad    bool
	lo     []uint64
	failed bool
}

// scan starts checking a scan of n keys from id start.
func (c *checker) scan(sc *scanCheck, start, n int) {
	want := len(c.acked) - start
	if n < want {
		want = n
	}
	*sc = scanCheck{c: c, start: start, want: want, lo: sc.lo[:0]}
	for i := 0; i < want; i++ {
		sc.lo = append(sc.lo, c.low(start+i))
	}
}

// kv checks the next pair a scan yielded.
func (sc *scanCheck) kv(key, value []byte) {
	id, ok := parseKey(key)
	i := sc.got
	sc.got++
	if sc.bad {
		return
	}
	if !ok || i >= sc.want || id != sc.start+i {
		sc.bad = true
		if i < sc.want {
			sc.c.fail(failScanOrder)
			sc.failed = true
		}
		return
	}
	if !sc.c.value(id, value, sc.lo[i]) {
		sc.bad, sc.failed = true, true
	}
}

// done finishes the scan; it counts one attempted op and at most one
// failure.
func (sc *scanCheck) done(err error) bool {
	sc.c.attempted.Add(1)
	switch {
	case err != nil:
		return sc.c.opError(err)
	case sc.failed:
		return false
	case sc.got != sc.want:
		return sc.c.fail(failScanShort)
	}
	return true
}

// final checks the post-recovery sweep read of id: every key must hold
// exactly its last acked version.
func (c *checker) final(id int, v []byte, err error) bool {
	c.attempted.Add(1)
	switch {
	case errors.Is(err, prism.ErrNotFound), err == nil && v == nil:
		return c.fail(failMissing)
	case err != nil:
		return c.opError(err)
	}
	gid, ver, ok := decodeValue(v, c.size)
	switch {
	case !ok:
		return c.fail(failCorrupt)
	case gid != id:
		return c.fail(failWrongKey)
	case ver != c.acked[id].Load():
		return c.fail(failLost)
	}
	return true
}

func (c *checker) failed() int64 {
	var n int64
	for i := range c.fails {
		n += c.fails[i].Load()
	}
	return n
}
