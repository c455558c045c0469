package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flowgen/internal/circuits"
	"flowgen/internal/flow"
	"flowgen/internal/synth"
)

// calibReps is how many times each calibration probe runs; the stamp
// holds the median.
const calibReps = 7

// calibrate times fixed work that depends on neither the seed nor the
// workload, so that a shift in a workload's figures between two sets of
// runs can be told apart from a shift in the host's speed:
//
//   - spin_ms: an integer loop that touches no memory (core speed);
//   - mem_ms: a dependent random walk over 64 MiB (memory latency);
//   - evaluate_ms: one direct Engine.Evaluate of a fixed alu8 flow in the
//     m=1 space on a fresh engine (the synthesis code itself).
//
// steal_ratio, the share of CPU time the hypervisor took during the
// workload, is passed in.
//
// It runs after the heap sampler stops and the resident peak is read,
// so its buffer does not count in them, and after a collection, so the
// workload's garbage is not collected inside it.
func calibrate(steal float64) (string, error) {
	spin := make([]float64, calibReps)
	mem := make([]float64, calibReps)
	eval := make([]float64, calibReps)

	runtime.GC()
	walk := cycle(rand.New(rand.NewSource(1)), 16<<20)
	d, err := circuits.ByName("alu8")
	if err != nil {
		return "", err
	}
	space := flow.NewSpace(flow.DefaultAlphabet, 1)
	f, err := space.Parse("balance; restructure; rewrite; refactor; rewrite -z; refactor -z")
	if err != nil {
		return "", err
	}
	for i := range calibReps {
		t0 := time.Now()
		spinSink += spinLoop(30_000_000)
		spin[i] = millis(time.Since(t0))

		t0 = time.Now()
		walkSink += walkCycle(walk, 1<<18)
		mem[i] = millis(time.Since(t0))

		eng := synth.NewEngine(d.Build(), space)
		t0 = time.Now()
		if _, err := eng.Evaluate(f); err != nil {
			return "", err
		}
		eval[i] = millis(time.Since(t0))
	}
	b, err := json.Marshal(map[string]float64{
		"spin_ms": median(spin), "mem_ms": median(mem), "evaluate_ms": median(eval), "steal_ratio": steal,
	})
	return string(b), err
}

// cpuTimes reads the machine-wide CPU time counters of /proc/stat: the
// time stolen from this machine's CPUs by the hypervisor, and the total.
func cpuTimes() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already counted in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// stealRatio is the share of CPU time the hypervisor took from this
// machine between two cpuTimes readings: a direct sign of other
// machines' load on the host.
func stealRatio(steal0, total0 float64) float64 {
	steal, total := cpuTimes()
	if total <= total0 {
		return 0
	}
	return (steal - steal0) / (total - total0)
}

// cpuTime is the CPU time the process has used, user and system. Time
// the hypervisor steals from the machine is not charged to it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spinSink and walkSink keep the probes' results live.
var spinSink, walkSink uint64

func spinLoop(n int) uint64 {
	x := uint64(88172645463325252)
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// cycle returns a random single-cycle permutation of n indices
// (Sattolo's algorithm), so a walk visits every slot before repeating.
func cycle(rng *rand.Rand, n int) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func walkCycle(p []uint32, steps int) uint64 {
	i := uint32(0)
	for range steps {
		i = p[i]
	}
	return uint64(i)
}
