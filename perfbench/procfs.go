package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture it exposes to user space.
const clockTicks = 100

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	PID   int
	State byte
	PPID  int
	UTime uint64 // clock ticks in user mode
	STime uint64 // clock ticks in kernel mode
	Start uint64 // start time in clock ticks after boot; tells reused pids apart
}

// parseStat parses one /proc/<pid>/stat line. The command name may hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStat(b []byte) (procStat, error) {
	var st procStat
	open := bytes.IndexByte(b, '(')
	close := bytes.LastIndexByte(b, ')')
	if open < 0 || close < open {
		return st, fmt.Errorf("stat: no command field in %q", b)
	}
	pid, err := strconv.Atoi(string(bytes.TrimSpace(b[:open])))
	if err != nil {
		return st, fmt.Errorf("stat: pid: %w", err)
	}
	st.PID = pid
	// Fields after the command, numbered from 3 (state) as in proc(5).
	f := bytes.Fields(b[close+1:])
	if len(f) < 20 {
		return st, fmt.Errorf("stat: %d fields after the command, want at least 20", len(f))
	}
	field := func(n int) []byte { return f[n-3] }
	if len(field(3)) != 1 {
		return st, fmt.Errorf("stat: state %q", field(3))
	}
	st.State = field(3)[0]
	if st.PPID, err = strconv.Atoi(string(field(4))); err != nil {
		return st, fmt.Errorf("stat: ppid: %w", err)
	}
	if st.UTime, err = strconv.ParseUint(string(field(14)), 10, 64); err != nil {
		return st, fmt.Errorf("stat: utime: %w", err)
	}
	if st.STime, err = strconv.ParseUint(string(field(15)), 10, 64); err != nil {
		return st, fmt.Errorf("stat: stime: %w", err)
	}
	if st.Start, err = strconv.ParseUint(string(field(22)), 10, 64); err != nil {
		return st, fmt.Errorf("stat: starttime: %w", err)
	}
	return st, nil
}

// parseStatusKB returns a "Key:   123 kB" value of /proc/<pid>/status in
// kilobytes.
func parseStatusKB(b []byte, key string) (int64, error) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", key)
}

func readStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseStat(b)
}

func readHWMKB(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmHWM")
}

// childrenOf lists the processes, zombies included, whose parent is ppid.
func childrenOf(ppid int) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		st, err := readStat(pid)
		if err != nil {
			continue
		}
		if st.PPID == ppid {
			out = append(out, pid)
		}
	}
	return out
}

// procKey names one process incarnation: pids are reused, start times
// are not.
type procKey struct {
	pid   int
	start uint64
}

// procUse is one incarnation's CPU use inside the window.
type procUse struct {
	role       string
	base, last uint64 // utime+stime ticks
}

// cpuSampler accounts CPU time and peak RSS of the program processes
// over a measurement window by sampling /proc. A process alive when the
// window opens is charged from that point; one born inside it (a
// respawned backend) is charged from its birth, so recovery work counts.
// A process that dies is charged up to its last sample.
type cpuSampler struct {
	roots func() map[int]string // pid → role of every program process now

	mu      sync.Mutex
	procs   map[procKey]*procUse
	peakKB  int64
	stop    chan struct{}
	stopped chan struct{}
}

func newCPUSampler(roots func() map[int]string) *cpuSampler {
	return &cpuSampler{roots: roots, procs: map[procKey]*procUse{}}
}

// sample reads every program process once. first marks the window's
// opening sweep, whose processes are charged from now on.
func (s *cpuSampler) sample(first bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sumKB int64
	for pid, role := range s.roots() {
		st, err := readStat(pid)
		if err != nil || st.State == 'Z' {
			continue
		}
		k := procKey{pid, st.Start}
		ticks := st.UTime + st.STime
		p := s.procs[k]
		if p == nil {
			p = &procUse{role: role}
			if first {
				p.base = ticks
			}
			s.procs[k] = p
		}
		p.last = ticks
		if kb, err := readHWMKB(pid); err == nil {
			sumKB += kb
		}
	}
	if sumKB > s.peakKB {
		s.peakKB = sumKB
	}
}

// start opens the window and samples every interval until finish.
func (s *cpuSampler) start(interval time.Duration) {
	s.sample(true)
	s.stop = make(chan struct{})
	s.stopped = make(chan struct{})
	go func() {
		defer close(s.stopped)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample(false)
			}
		}
	}()
}

// finish closes the window and returns CPU seconds per role and the peak
// summed VmHWM in megabytes.
func (s *cpuSampler) finish() (cpuByRole map[string]float64, peakMB float64) {
	close(s.stop)
	<-s.stopped
	s.sample(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	cpuByRole = map[string]float64{}
	for _, p := range s.procs {
		cpuByRole[p.role] += float64(p.last-p.base) / clockTicks
	}
	return cpuByRole, float64(s.peakKB) / 1024
}
