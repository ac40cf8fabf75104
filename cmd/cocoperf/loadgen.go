package main

import (
	"errors"
	"runtime"
	"time"

	"cocosketch/internal/metrics"
)

// openLoop sends n requests on a fixed schedule, request i due at
// start + i·interval, through one client that waits for each reply
// (one keep-alive connection carries one request at a time). The
// schedule never slows down for the system: a request whose
// predecessor is still in flight at its due time is sent late, and its
// latency is timed from when it was due, so a stall is charged to
// every request queued behind it instead of silently thinning the
// load (coordinated omission).
type openLoop struct {
	start    time.Time
	interval time.Duration
	n        int
	// deadline, when non-zero, fails every request not sent by then, so
	// a stalled system cannot hold the run past its time limit.
	deadline time.Time
}

// failedMs is the latency recorded for a failed request: far beyond
// any limit, yet finite, so percentiles stay ordinary numbers.
const failedMs = 1e6

// loadResult holds one openLoop run: per-request latency from the due
// time and lag (how late the request was sent), both indexed by
// request number. A failed request has latency failedMs.
type loadResult struct {
	latency []float64 // ms
	lag     []float64 // ms
	failed  int
	// errors describes the first few failures.
	errors []string
}

// run executes the schedule, calling do(i) for request i. An error
// from do marks the request failed.
func (l openLoop) run(do func(i int) error) loadResult {
	res := loadResult{latency: make([]float64, l.n), lag: make([]float64, l.n)}
	for i := 0; i < l.n; i++ {
		due := l.start.Add(time.Duration(i) * l.interval)
		waitUntil(due)
		sent := time.Now()
		res.lag[i] = ms(sent.Sub(due))
		err := errPastDeadline
		if l.deadline.IsZero() || !sent.After(l.deadline) {
			err = do(i)
		}
		res.latency[i] = ms(time.Since(due))
		if err != nil {
			res.latency[i] = failedMs
			res.failed++
			if len(res.errors) < 10 {
				res.errors = append(res.errors, err.Error())
			}
		}
	}
	return res
}

// timerSlack covers how late time.Sleep wakes (up to about a
// millisecond on a loaded host): the generator sleeps until this long
// before a request is due and yields in a loop for the rest, so its
// own timer does not show up as request latency.
const timerSlack = 1500 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

var errPastDeadline = errors.New("not sent before the run's deadline")

// lagP99 is the 99th percentile of send lateness in ms, the validity
// check of an open-loop run: a generator that cannot keep its
// schedule is measuring a backlog, not the offered rate.
func (r loadResult) lagP99() float64 { return metrics.Percentile(r.lag, 99) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
