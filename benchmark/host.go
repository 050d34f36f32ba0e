package main

import (
	"runtime"
	"time"
)

// hostInfo is the fingerprint every result carries: absolute numbers from
// two hosts are not comparable, and a reader needs to see that at a glance.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Kernel     string `json:"kernel"`
	TmpDir     string `json:"tmp_dir"`
	TmpFS      string `json:"tmp_fs"`
}

func fingerprint(tmpRoot string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     kernelRelease(),
		TmpDir:     tmpRoot,
		TmpFS:      fsType(tmpRoot),
	}
}

// calibration is the harness's own cost, measured at start-up and printed, so
// a reader can judge what share of a small number is the measuring itself.
type calibration struct {
	// TimeNowNs is one time.Now() call: every timed call pays one.
	TimeNowNs float64 `json:"time_now_ns"`
	// EmptyLoopNs is one iteration of the probe loop around an empty
	// function; it is subtracted from every ns/op probe.
	EmptyLoopNs float64 `json:"empty_loop_ns"`
}

var sinkTime time.Time

func calibrate() calibration {
	const n = 1 << 20
	best := func(fn func()) float64 {
		b := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			fn()
			if d := float64(time.Since(start).Nanoseconds()) / n; rep == 0 || d < b {
				b = d
			}
		}
		return b
	}
	var c calibration
	c.TimeNowNs = best(func() {
		for i := 0; i < n; i++ {
			sinkTime = time.Now()
		}
	})
	empty := func() {}
	c.EmptyLoopNs = best(func() { timeLoop(n, empty) })
	return c
}

// timeLoop is the probe loop: n back-to-back calls of fn through a function
// value, the same shape for the calibration and for every probe.
//
//go:noinline
func timeLoop(n int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start)
}
