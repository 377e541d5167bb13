package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// wireReq is one request in flight on a connection.
type wireReq struct {
	kind      opKind
	id        int
	ver, lo   uint64
	gen, sent time.Time // when it was generated; when it was written
}

// replyTimeout bounds the wait for any one reply.
const replyTimeout = 20 * time.Second

// runPipelined drives the RESP server at addr over one connection per
// client for dur, each a goroutine keeping the workload's depth of
// requests in flight: it writes new requests for every free slot in one
// batch, then reads whatever replies have arrived. Latency is timed
// from the write to the reply.
func runPipelined(addr string, w *workload, ck *checker, seed uint64, stream int, dur time.Duration, tr *tracer) (phase, error) {
	outs := make([]phase, clients)
	errs := make([]error, clients)
	logs := make([]*spanLog, clients)
	for i := range logs {
		logs[i] = tr.log()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = pipeConn(addr, w, ck, newGenerator(w, seed, stream, i), start, dur, logs[i], &outs[i])
		}(i)
	}
	wg.Wait()
	return mergePhases(outs, time.Since(start)), errors.Join(errs...)
}

func pipeConn(addr string, w *workload, ck *checker, gen *generator, start time.Time, dur time.Duration, sl *spanLog, out *phase) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	end := start.Add(dur)
	var (
		pending []wireReq // pending[head:] are in flight, oldest first
		head    int
		wbuf    []byte
		rbuf    = make([]byte, 64<<10)
		rlen    int
		val     = make([]byte, w.valueSize)
		key     = make([]byte, 0, keyLen)
	)
	for {
		now := time.Now()
		stopping := !now.Before(end)
		queued := len(pending)
		for !stopping && len(pending)-head < w.depth {
			o := gen.next()
			key = appendKey(key[:0], o.id)
			r := wireReq{kind: o.kind, id: o.id, gen: now}
			if o.kind == opPut {
				r.ver = ck.issue(o.id)
				encodeValue(val, o.id, r.ver)
				wbuf = appendCommand(wbuf, "SET", key, val)
			} else {
				r.lo = ck.low(o.id)
				wbuf = appendCommand(wbuf, "GET", key)
			}
			pending = append(pending, r)
		}
		if len(wbuf) > 0 {
			sent := time.Now()
			for j := queued; j < len(pending); j++ {
				pending[j].sent = sent
			}
			if err := conn.SetWriteDeadline(sent.Add(replyTimeout)); err != nil {
				return err
			}
			if _, err := conn.Write(wbuf); err != nil {
				return err
			}
			wbuf = wbuf[:0]
		}
		if head == len(pending) {
			return nil // stopping, and every reply is in
		}
		if err := conn.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
			return err
		}
		if rlen == len(rbuf) {
			rbuf = append(rbuf, make([]byte, len(rbuf))...)
		}
		n, err := conn.Read(rbuf[rlen:])
		rlen += n
		if err != nil {
			return fmt.Errorf("read with %d replies owed: %w", len(pending)-head, err)
		}
		got := time.Now()
		out.tick(start, got)
		off := 0
		for {
			r, used, ok := parseReply(rbuf[off:rlen])
			if !ok {
				break
			}
			if used < 0 {
				return fmt.Errorf("malformed reply %q", rbuf[off:min(rlen, off+64)])
			}
			off += used
			if head == len(pending) {
				return errors.New("reply without a request")
			}
			q := pending[head]
			head++
			finishWire(ck, q, r)
			reqID, call := sl.newID(), sl.newID()
			sl.add(call, "resp.roundtrip", reqID, reqID, q.sent, got, -1, -1)
			sl.add(reqID, "op", 0, reqID, q.gen, time.Now(), -1, -1)
			out.wlat = append(out.wlat, got.Sub(q.sent).Nanoseconds())
			out.ops++
		}
		rlen = copy(rbuf, rbuf[off:rlen])
		pending, head = pending[:copy(pending, pending[head:])], 0
	}
}

// reply is one decoded RESP reply.
type reply struct {
	kind byte // '+', '-', ':', '$'
	data []byte
	null bool
}

func finishWire(ck *checker, q wireReq, r reply) {
	var err error
	if r.kind == '-' {
		err = fmt.Errorf("error reply %q", r.data)
	}
	switch q.kind {
	case opPut:
		if err == nil && (r.kind != '+' || string(r.data) != "OK") {
			err = fmt.Errorf("SET reply %q", r.data)
		}
		ck.ack(q.id, q.ver, err)
	case opGet:
		if err == nil && r.kind != '$' {
			err = fmt.Errorf("GET reply kind %q", r.kind)
		}
		var v []byte
		if !r.null {
			v = r.data
		}
		ck.read(q.id, v, err, q.lo)
	}
}

func appendCommand(b []byte, verb string, args ...[]byte) []byte {
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(1+len(args)), 10)
	b = append(b, "\r\n$"...)
	b = strconv.AppendInt(b, int64(len(verb)), 10)
	b = append(b, "\r\n"...)
	b = append(b, verb...)
	b = append(b, "\r\n"...)
	for _, a := range args {
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(len(a)), 10)
		b = append(b, "\r\n"...)
		b = append(b, a...)
		b = append(b, "\r\n"...)
	}
	return b
}

// parseReply decodes one reply from the front of b. ok is false when b
// does not yet hold a whole reply; used < 0 marks a malformed one.
func parseReply(b []byte) (r reply, used int, ok bool) {
	eol := bytes.Index(b, []byte("\r\n"))
	if eol < 0 {
		return reply{}, 0, false
	}
	if eol == 0 {
		return reply{}, -1, true
	}
	r.kind = b[0]
	line := b[1:eol]
	switch r.kind {
	case '+', '-', ':':
		r.data = line
		return r, eol + 2, true
	case '$':
		n, err := strconv.Atoi(string(line))
		if err != nil || n < -1 {
			return reply{}, -1, true
		}
		if n == -1 {
			r.null = true
			return r, eol + 2, true
		}
		end := eol + 2 + n
		if len(b) < end+2 {
			return reply{}, 0, false
		}
		if b[end] != '\r' || b[end+1] != '\n' {
			return reply{}, -1, true
		}
		r.data = b[eol+2 : end]
		return r, end + 2, true
	}
	return reply{}, -1, true
}
