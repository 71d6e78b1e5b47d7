package main

import (
	"math"
	"os"
	"time"
)

// Host-speed calibration. The sandbox this benchmark runs in shares its two
// processors with other tenants: for a minute or more at a time everything
// runs 15–50 % slower, and a run is half a minute. Ten seeds of unscaled
// slice medians spread 19–32 % between quartiles on three of the four
// workloads (AA.md), beyond the widest bound the driver's contract admits,
// so without this file the benchmark cannot gate anything. Nothing inside
// one run can outlast such a phase, but it can be measured: between slices,
// while the callers are idle, the benchmark times a fixed piece of work of
// its own — it never calls the program under test — and every timed metric
// of a slice is scaled to what it would be at the reference speed. The
// unscaled values are printed beside them.
//
// The work is a ping-pong of one byte between two goroutines over a pair
// of pipes: a write, a read, and the wake-up of a parked goroutine on the
// other processor for every hop. That is what the workloads spend their
// time on (a fan-out to ten servers and a wait for the slowest reply, over
// channels or loopback sockets), and it is what a busy neighbour slows
// most. Of the kernels tried over twenty seeds per workload (integer work
// in cache, random memory access, channel ping-pong, pipe ping-pong and
// their means) it left the narrowest spread on every workload: 4.6 % on
// average against 14.1 % unscaled and 7.4 % for integer work.

const (
	// hostSpeedRef is the ping-pong's speed in round trips per second on
	// the host the bounds were measured on in a calm phase; at this speed a
	// scaled metric equals the raw one.
	hostSpeedRef = 300000
	hostSpeedDur = 100 * time.Millisecond
)

// hostSpeed reads how fast the host is right now, in round trips per
// second. It must be called while the callers are idle. A pipe that cannot
// be opened or fails reads NaN, which no metric survives (report.set).
func hostSpeed() float64 {
	r1, w1, err := os.Pipe()
	if err != nil {
		return math.NaN()
	}
	defer r1.Close()
	defer w1.Close()
	r2, w2, err := os.Pipe()
	if err != nil {
		return math.NaN()
	}
	defer r2.Close()
	defer w2.Close()

	// The echo side returns every byte until it is sent a zero.
	echoed := make(chan error, 1)
	go func() {
		var b [1]byte
		for {
			if _, err := r1.Read(b[:]); err != nil || b[0] == 0 {
				echoed <- err
				return
			}
			if _, err := w2.Write(b[:]); err != nil {
				echoed <- err
				return
			}
		}
	}()
	b := [1]byte{1}
	trips := 0
	start := time.Now()
	for err == nil && time.Since(start) < hostSpeedDur {
		// The clock is read once per 16 round trips.
		for i := 0; i < 16 && err == nil; i++ {
			if _, err = w1.Write(b[:]); err == nil {
				_, err = r2.Read(b[:])
			}
		}
		trips += 16
	}
	elapsed := time.Since(start)
	b[0] = 0
	if _, werr := w1.Write(b[:]); werr != nil {
		// The echo side cannot be told to stop; closing its pipe does it.
		r1.Close()
	}
	if eerr := <-echoed; err != nil || eerr != nil {
		return math.NaN()
	}
	return float64(trips) / elapsed.Seconds()
}

// speedFactor turns the readings taken before and after a piece of work
// into the factor by which the host ran faster than the reference while
// it did that work.
func speedFactor(before, after float64) float64 {
	return (before + after) / 2 / hostSpeedRef
}
