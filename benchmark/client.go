package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// This file is the closed-loop player and the statistics over its samples.
// Every pass — against the daemon over HTTP, or in-process for the traced
// run — goes through play, so the passes differ only in their sender.

// sample is the outcome of one request.
type sample struct {
	lat  time.Duration
	resp api.RunResponse
	err  error // transport error, non-200, refusal or output mismatch
}

// sender delivers request i of a list and returns the daemon's answer.
// Implementations time the exchange themselves (lat) so response checking
// stays outside the measured interval.
type sender func(client, i int, r *request) (resp api.RunResponse, lat time.Duration, err error)

// play sends reqs through a closed loop: each of clients goroutines takes
// the next unsent request once its previous one has been answered, so at
// most clients requests are ever in flight and the list order is the
// arrival order. Nothing is retried. Requests not started by deadline are
// reported as failed rather than sent: the run must end.
func play(t *traffic, reqs []request, clients int, deadline time.Time, send sender) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s := &out[i]
				if time.Now().After(deadline) {
					s.err = fmt.Errorf("not sent: run deadline passed")
					continue
				}
				s.resp, s.lat, s.err = send(c, i, &reqs[i])
				if want := t.Programs[reqs[i].Program].Want; s.err == nil && s.resp.Output != want {
					s.err = fmt.Errorf("%s: output %q, want %q", t.class(&reqs[i]), s.resp.Output, want)
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// httpSender posts to the daemon's /v1/run over one keep-alive connection
// per client. The request is written by hand and the response parsed on the
// calling goroutine: net/http's client spends about as much CPU per request
// as the daemon does on a short program, and on a two-core box that would
// be measuring the load generator. Latency runs from just before the
// request is written to the last byte of the body; decoding happens after
// the clock stops.
func httpSender(base string, clients int) sender {
	host := strings.TrimPrefix(base, "http://")
	conns := make([]*clientConn, clients)
	return func(client, _ int, r *request) (resp api.RunResponse, lat time.Duration, err error) {
		start := time.Now()
		k := conns[client]
		if k == nil {
			c, err := net.Dial("tcp", host)
			if err != nil {
				return resp, 0, err
			}
			k = &clientConn{c: c, br: bufio.NewReader(c)}
			conns[client] = k
		}
		status, body, err := k.post(host, r.Body)
		lat = time.Since(start)
		if err != nil {
			k.c.Close()
			conns[client] = nil // the next request redials; this one failed
			return resp, lat, err
		}
		if status != http.StatusOK {
			return resp, lat, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
		}
		err = json.Unmarshal(body, &resp)
		return resp, lat, err
	}
}

// clientConn is one client's connection to the daemon.
type clientConn struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte
}

// post writes one POST /v1/run and reads the whole response.
func (k *clientConn) post(host string, payload []byte) (int, []byte, error) {
	if err := k.c.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return 0, nil, err
	}
	k.out = append(k.out[:0], "POST /v1/run HTTP/1.1\r\nHost: "...)
	k.out = append(k.out, host...)
	k.out = append(k.out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	k.out = strconv.AppendInt(k.out, int64(len(payload)), 10)
	k.out = append(k.out, "\r\n\r\n"...)
	k.out = append(k.out, payload...)
	if _, err := k.c.Write(k.out); err != nil {
		return 0, nil, err
	}
	hresp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	return hresp.StatusCode, body, err
}

// failures counts failed samples and returns the first error for the log.
func failures(samples []sample) (n int, first error) {
	for i := range samples {
		if samples[i].err != nil {
			if first == nil {
				first = samples[i].err
			}
			n++
		}
	}
	return n, first
}

// latenciesMs returns the latencies of the successful samples that keep
// (nil = all) accepts, in milliseconds.
func latenciesMs(samples []sample, keep func(i int) bool) []float64 {
	var out []float64
	for i := range samples {
		if samples[i].err == nil && (keep == nil || keep(i)) {
			out = append(out, ms(samples[i].lat))
		}
	}
	return out
}

// classGmeanMs is latency_gmean_ms: the geometric mean over request classes
// (program × mode) of the class's median latency. Every class weighs the
// same however often it is requested, so one slow program cannot hide
// behind a popular fast one. When every program is seen once (cold-tenants)
// the whole list is one class.
func classGmeanMs(t *traffic, reqs []request, samples []sample) float64 {
	byClass := map[string][]float64{}
	once := true
	for i := range samples {
		if samples[i].err != nil {
			continue
		}
		c := t.class(&reqs[i])
		once = once && len(byClass[c]) == 0
		byClass[c] = append(byClass[c], ms(samples[i].lat))
	}
	if once {
		return median(latenciesMs(samples, nil))
	}
	logSum := 0.0
	for _, lat := range byClass {
		logSum += math.Log(median(lat))
	}
	return math.Exp(logSum / float64(len(byClass)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of v (mean of the two middles for even n), 0
// for an empty slice. It does not modify v.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank p-th percentile of v, 0 for an empty
// slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}
