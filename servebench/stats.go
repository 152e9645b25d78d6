package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, which it sorts in place. It refuses when fewer than minTail
// samples lie beyond the percentile: such a figure is set by a handful
// of outliers and does not repeat.
func percentile(samples []float64, p float64) (float64, error) {
	sort.Float64s(samples)
	n := len(samples)
	rank := int(math.Ceil(float64(n)*p/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples leave %d", p, minTail, n, max(n-rank, 0))
	}
	return samples[rank-1], nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat's
// CPU times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseProcCPU returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	// After ") " come fields 3 (state) onward; utime and stime are
	// fields 14 and 15.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command", len(f))
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat cpu field %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// processCPU reads a process's user+system CPU time.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcCPU(string(b))
}

// procStatusBytes reads a "<field>: N kB" line of a process's
// /proc/<pid>/status, in bytes.
func procStatusBytes(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("malformed %s line %q", field, line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// rssEvery is how often sampleRSS reads the resident set.
const rssEvery = 250 * time.Millisecond

// rssSamples is what sampleRSS delivers: VmRSS readings in MB, or the
// first read error.
type rssSamples struct {
	mb  []float64
	err error
}

// sampleRSS reads pid's resident set size (VmRSS) every rssEvery until
// stop is closed, then delivers the readings on the returned channel.
func sampleRSS(pid int, stop <-chan struct{}) <-chan rssSamples {
	out := make(chan rssSamples, 1)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var r rssSamples
		for {
			select {
			case <-stop:
				if r.err == nil && len(r.mb) == 0 {
					r.err = errors.New("window too short for an RSS sample")
				}
				out <- r
				return
			case <-tick.C:
			}
			b, err := procStatusBytes(pid, "VmRSS")
			if err != nil {
				if r.err == nil {
					r.err = err
				}
				continue
			}
			r.mb = append(r.mb, float64(b)/(1<<20))
		}
	}()
	return out
}

// probeRounds and probeSteps size hostProbe: a few tenths of a second.
const (
	probeRounds = 3
	probeSteps  = 20_000_000
)

// probeSink keeps hostProbe's loop from being optimized away.
var probeSink uint64

// hostProbe times a fixed memory-bound loop over a 4 MB table and
// returns the median round in milliseconds. The work never changes, so
// the time tracks how fast the host runs at that moment; the run
// context records it next to the figures.
func hostProbe() float64 {
	table := make([]uint64, 1<<19)
	x := uint64(1)
	var took [probeRounds]float64
	for r := range took {
		start := time.Now()
		for i := 0; i < probeSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			table[x>>45] += x
		}
		took[r] = ms(time.Since(start))
	}
	probeSink = x + table[0]
	return median(took[:])
}
