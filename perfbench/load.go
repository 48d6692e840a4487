package main

import (
	"net/http"
	"time"
)

// clock is the time source of the open-loop sender; tests substitute
// a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// shot is the outcome of one open-loop request.
type shot struct {
	// status is the HTTP status, 0 on a transport error.
	status int
	// rtt runs from the request's due time to its response, so a
	// stalled request also charges the wait it imposed on later ones.
	rtt time.Duration
	// late is how far after its due time the request was sent.
	late time.Duration
}

// openLoop sends n requests on one connection, request i due at
// start + i/rate, whatever the responses do: a request that is due is
// sent as soon as the previous one returns.
func openLoop(c clock, start time.Time, rate float64, n int, send func(i int) int) []shot {
	out := make([]shot, n)
	for i := range out {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if now := c.Now(); now.Before(due) {
			c.Sleep(due.Sub(now))
		}
		sent := c.Now()
		status := send(i)
		out[i] = shot{status: status, rtt: c.Now().Sub(due), late: sent.Sub(due)}
	}
	return out
}

// closedLoop sends requests back to back on one connection for dur and
// returns, per window of dur/windows, how many were accepted (202),
// plus every status.
func closedLoop(c clock, dur time.Duration, windows int, send func(i int) int) (ok []int, statuses []int) {
	ok = make([]int, windows)
	start := c.Now()
	for i := 0; ; i++ {
		at := c.Now().Sub(start)
		if at >= dur {
			return ok, statuses
		}
		st := send(i)
		statuses = append(statuses, st)
		if st == http.StatusAccepted {
			ok[int(at*time.Duration(windows)/dur)]++
		}
	}
}

// rung is one fixed-rate step of the observe load.
type rung struct {
	rate                         float64
	sent, accepted, shed, failed int
	rttMS, lateMS                []float64
	// drained is true when the daemon had observed every accepted
	// sample within drainLimit of the rung's end.
	drained bool
}

// Rung pass limits.
const (
	rttLimitMS = 50.0
	drainLimit = time.Second
)

// passes applies the max_ok_rate rule: the rung's observe p99 RTT
// (with enough samples beyond it) is within rttLimitMS, nothing failed
// or was shed, and every accepted sample was observed in time.
func (r rung) passes() bool {
	p99, ok := percentile(r.rttMS, 0.99)
	return ok && p99 <= rttLimitMS && r.failed == 0 && r.shed == 0 && r.drained
}

// maxOKRate is the highest rate of the leading run of passing rungs
// (rungs ascend; the first failure ends the ladder), 0 when the first
// fails.
func maxOKRate(rungs []rung) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.passes() {
			break
		}
		best = r.rate
	}
	return best
}
