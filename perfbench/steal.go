package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// The reference box is a 2-vCPU virtual machine whose hypervisor at times
// takes 10-20% of the machine's CPU time for other tenants. In such
// windows the measured rates drop by up to a third. Each window therefore
// records the machine-wide steal share from /proc/stat, and the summary
// keeps the windows in which little was stolen.
const (
	cleanSteal   = 0.02 // a window with at most this steal share counts as clean
	minCleanPart = 4    // use the clean windows when at least 1/minCleanPart of them are
)

// cpuTicks is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuTicks struct{ total, steal uint64 }

// machineTicks reads the aggregate cpu line of /proc/stat. Where the file
// is missing it reports zero, and every window then counts as clean.
func machineTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var t cpuTicks
	for i := 1; i < len(fields) && i <= 8; i++ { // user … steal; guest time is inside user
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealShare reports the share of machine CPU time stolen since before.
func (t cpuTicks) stealShare(before cpuTicks) float64 {
	if t.total <= before.total {
		return 0
	}
	return float64(t.steal-before.steal) / float64(t.total-before.total)
}

// cleanest picks the samples to summarize, given each one's steal share:
// every clean sample when at least a quarter (and at least one) are clean,
// else the quarter with the least steal.
func cleanest(steal []float64) []int {
	var clean []int
	for i, s := range steal {
		if s <= cleanSteal {
			clean = append(clean, i)
		}
	}
	want := max(1, len(steal)/minCleanPart)
	if len(clean) >= want {
		return clean
	}
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:want]
	sort.Ints(idx)
	return idx
}
