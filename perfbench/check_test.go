package main

import (
	"errors"
	"testing"

	prism "repro"
)

const testSize = 64

func val(id int, ver uint64) []byte {
	v := make([]byte, testSize)
	encodeValue(v, id, ver)
	return v
}

func key(id int) []byte { return appendKey(nil, id) }

// scanOf feeds a scan of n keys from start that yields ids, at version
// ver, to the checker.
func scanOf(ck *checker, start, n int, ids []int, ver uint64) bool {
	var sc scanCheck
	ck.scan(&sc, start, n)
	for _, id := range ids {
		sc.kv(key(id), val(id, ver))
	}
	return sc.done(nil)
}

// TestCheckerAcceptsCorrectOutputs is the positive control: correct
// reads, scans and post-recovery reads count as attempted, never failed.
func TestCheckerAcceptsCorrectOutputs(t *testing.T) {
	ck := newChecker(10, testSize)
	v := ck.issue(3)
	ok := ck.read(3, val(3, 1), nil, 1) && // before the ack: old version
		ck.read(3, val(3, v), nil, 1) && // before the ack: new version
		ck.ack(3, v, nil) &&
		ck.read(3, val(3, v), nil, ck.low(3)) &&
		scanOf(ck, 0, 3, []int{0, 1, 2}, 1) &&
		scanOf(ck, 8, 5, []int{8, 9}, 1) && // clipped at the keyspace end
		ck.final(3, val(3, v), nil) &&
		ck.final(4, val(4, 1), nil)
	if !ok || ck.failed() != 0 || ck.attempted.Load() != 8 {
		t.Fatalf("ok=%v failed=%d attempted=%d", ok, ck.failed(), ck.attempted.Load())
	}
}

// TestCheckerCountsEveryFailureClass feeds the checker one wrong output
// of each class and checks it is counted, in its class, in the failed
// share a run reports.
func TestCheckerCountsEveryFailureClass(t *testing.T) {
	corrupt := val(2, 1)
	corrupt[testSize-1] ^= 1
	cases := []struct {
		name string
		want failClass
		feed func(ck *checker) bool
	}{
		{"store error", failError, func(ck *checker) bool {
			return ck.ack(2, ck.issue(2), errors.New("ERR injected"))
		}},
		{"corrupted payload", failCorrupt, func(ck *checker) bool { return ck.read(2, corrupt, nil, 1) }},
		{"truncated value", failCorrupt, func(ck *checker) bool { return ck.read(2, val(2, 1)[:testSize-8], nil, 1) }},
		{"wrong key", failWrongKey, func(ck *checker) bool { return ck.read(2, val(5, 1), nil, 1) }},
		{"stale version", failStale, func(ck *checker) bool {
			v := ck.issue(2)
			ck.ack(2, v, nil)
			return ck.read(2, val(2, 1), nil, ck.low(2))
		}},
		{"version never written", failFuture, func(ck *checker) bool { return ck.read(2, val(2, 7), nil, 1) }},
		{"missing key", failMissing, func(ck *checker) bool { return ck.read(2, nil, prism.ErrNotFound, 1) }},
		{"nil value", failMissing, func(ck *checker) bool { return ck.read(2, nil, nil, 1) }},
		{"short scan", failScanShort, func(ck *checker) bool { return scanOf(ck, 1, 4, []int{1, 2, 3}, 1) }},
		{"long scan", failScanShort, func(ck *checker) bool { return scanOf(ck, 8, 5, []int{8, 9, 10}, 1) }},
		{"out-of-order scan", failScanOrder, func(ck *checker) bool { return scanOf(ck, 1, 3, []int{1, 3, 2}, 1) }},
		{"scan with a gap", failScanOrder, func(ck *checker) bool { return scanOf(ck, 1, 3, []int{1, 2, 4}, 1) }},
		{"scan of a corrupted value", failWrongKey, func(ck *checker) bool {
			var sc scanCheck
			ck.scan(&sc, 1, 2)
			sc.kv(key(1), val(1, 1))
			sc.kv(key(2), val(3, 1))
			return sc.done(nil)
		}},
		{"lost acked write", failLost, func(ck *checker) bool {
			v := ck.issue(2)
			ck.ack(2, v, nil)
			return ck.final(2, val(2, 1), nil)
		}},
		{"key lost in recovery", failMissing, func(ck *checker) bool { return ck.final(2, nil, prism.ErrNotFound) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck := newChecker(10, testSize)
			before := ck.attempted.Load()
			if tc.feed(ck) {
				t.Fatal("wrong output accepted")
			}
			if got := ck.fails[tc.want].Load(); got != 1 {
				t.Errorf("%s count = %d, want 1", failNames[tc.want], got)
			}
			if ck.failed() != 1 {
				t.Errorf("failed = %d, want exactly 1", ck.failed())
			}
			if ck.attempted.Load() <= before {
				t.Error("the failed op was not counted as attempted")
			}
		})
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, size := range []int{valueHeader, 256, 1024, 1000} {
		v := make([]byte, size)
		encodeValue(v, 12345, 67)
		id, ver, ok := decodeValue(v, size)
		if !ok || id != 12345 || ver != 67 {
			t.Fatalf("size %d: got %d %d %v", size, id, ver, ok)
		}
	}
}

func TestParseReply(t *testing.T) {
	in := []byte("+OK\r\n$3\r\na\r\n\r\n$-1\r\n-ERR x\r\n$5\r\nab")
	var got []reply
	for {
		r, used, ok := parseReply(in)
		if !ok {
			break
		}
		if used < 0 {
			t.Fatalf("malformed at %q", in)
		}
		got = append(got, r)
		in = in[used:]
	}
	if len(got) != 4 || string(got[1].data) != "a\r\n" || !got[2].null || got[3].kind != '-' || string(in) != "$5\r\nab" {
		t.Fatalf("got %+v, rest %q", got, in)
	}
}
