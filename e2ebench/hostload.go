package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// machineTicks returns the machine's busy and total CPU time in clock
// ticks from the "cpu" line of /proc/stat. Busy counts user, nice,
// system and steal (time the hypervisor gave to another guest while
// this one had work); total adds idle, iowait, irq and softirq. Irq and
// softirq time is not in busy: on loopback it is mostly the
// benchmark's own traffic, which no process is charged for.
func machineTicks() (busy, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return 0, 0, err
		}
	}
	// user nice system idle iowait irq softirq steal
	busy = v[0] + v[1] + v[2] + v[7]
	return busy, busy + v[3] + v[4] + v[5] + v[6], nil
}

// procTicks returns utime+stime of pid in clock ticks.
func procTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return ut + st, nil
}

// hostLoad samples, once per window, the share of the machine's CPU
// that went neither to the server under test nor to the benchmark's
// own processes: other tenants of a shared host, and steal. Timings
// taken while that share is high measure the neighbours more than the
// program. It also keeps the server's own CPU ticks per window.
type hostLoad struct {
	server  int   // the server's pid
	ours    []int // the benchmark's pids
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	windows []loadWindow
}

type loadWindow struct {
	foreign     float64 // share of all CPUs
	serverTicks int64
}

// startHostLoad samples at start + k*window for k = 0, 1, ... until
// stopped.
func startHostLoad(start time.Time, window time.Duration, server int, ours ...int) *hostLoad {
	h := &hostLoad{server: server, ours: ours, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		var lastBusy, lastTotal, lastOurs, lastServer int64
		for k := 0; ; k++ {
			select {
			case <-h.stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * window))):
			}
			busy, total, err := machineTicks()
			if err != nil {
				return
			}
			server, err := procTicks(h.server)
			if err != nil {
				return
			}
			ours := server
			for _, pid := range h.ours {
				t, err := procTicks(pid)
				if err != nil {
					return
				}
				ours += t
			}
			if k > 0 && total > lastTotal {
				foreign := float64(busy-lastBusy-(ours-lastOurs)) / float64(total-lastTotal)
				h.mu.Lock()
				h.windows = append(h.windows, loadWindow{foreign: max(foreign, 0), serverTicks: server - lastServer})
				h.mu.Unlock()
			}
			lastBusy, lastTotal, lastOurs, lastServer = busy, total, ours, server
		}
	}()
	return h
}

// result stops sampling and returns every window sampled.
func (h *hostLoad) result() []loadWindow {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.windows
}

// quietShare is the foreign CPU share up to which a window counts as
// quiet.
const quietShare = 0.05

// quietWindows picks which of n windows to report: those measured while
// the rest of the host used at most quietShare of its CPU or, if fewer
// than a third of them were, the third with the least foreign load.
// Windows the sampler missed count as busy.
func quietWindows(load []loadWindow, n int) []int {
	share := func(i int) float64 {
		if i < len(load) {
			return load[i].foreign
		}
		return 1
	}
	var quiet []int
	for i := 0; i < n; i++ {
		if share(i) <= quietShare {
			quiet = append(quiet, i)
		}
	}
	if k := (n + 2) / 3; len(quiet) < k {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		sort.SliceStable(all, func(a, b int) bool { return share(all[a]) < share(all[b]) })
		quiet = all[:k]
	}
	return quiet
}
