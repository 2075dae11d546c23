package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size. One process runs
// one workload, so no other workload's peak is in it.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procSnap is the runtime's allocation and GC counters, and the
// machine's CPU ticks, at one instant.
type procSnap struct {
	cpu     time.Duration // process CPU, user plus system
	mallocs uint64
	gcCPU   float64 // seconds
	ticks   ticks
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func takeSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(sample)
	s := procSnap{cpu: cpuTime(), mallocs: ms.Mallocs, ticks: readTicks()}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = sample[0].Value.Float64()
	}
	return s
}

// ticks is the machine-wide CPU time so far, in clock ticks: the busy
// part (everything but idle and I/O wait, steal included) and the part
// of it the hypervisor stole from this machine's CPUs. Stolen CPU slows
// every op and is outside the program.
type ticks struct{ busy, steal uint64 }

// readTicks reads the machine's CPU ticks from Linux /proc/stat (zeros
// elsewhere).
func readTicks() ticks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return ticks{}
	}
	var t ticks
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return ticks{}
		}
		if i != 3 && i != 4 {
			t.busy += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stolenShare is the share of the machine's busy CPU time between two
// readings that the hypervisor stole: the share of the time a running
// op wanted a CPU and did not get one.
func stolenShare(from, to ticks) float64 {
	return ratio(float64(to.steal-from.steal), float64(to.busy-from.busy))
}
