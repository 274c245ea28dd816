package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// running is one launched program topology: a single ebid-server, or an
// ebid-proxy with its backends.
type running struct {
	cmd      *exec.Cmd
	log      *os.File
	base     string   // URL the generator targets
	backends []string // backend base URLs (the server itself when unproxied)
	walDir   string   // per-backend WAL files (fleet only)
	proxied  bool
	setup    time.Duration // launch → ready
	waited   chan struct{} // closed once the exec'd process has been waited for
}

// freePortRun finds n consecutive free loopback ports (the proxy gives
// backend i port base+i). They are picked below the kernel's ephemeral
// range: a backend binds its port seconds after it was chosen, and an
// ephemeral port could meanwhile be taken by any outgoing connection.
func freePortRun(n int) (int, error) {
	low := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				low = v
			}
		}
	}
	const floor = 10000
	if low-floor < 1000 {
		return 0, fmt.Errorf("ephemeral port range starts at %d: no room below it", low)
	}
	for try := 0; try < 100; try++ {
		base := floor + rand.Intn(low-floor-n)
		ok := true
		for i := 0; i < n && ok; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(base+i))
			if err != nil {
				ok = false
				continue
			}
			l.Close()
		}
		if ok {
			return base, nil
		}
	}
	return 0, fmt.Errorf("no run of %d free ports", n)
}

// launch starts the workload's topology from the prebuilt binaries and
// waits until it is ready: /healthz for a single server,
// /admin/proxy/ready for a fleet. The time from exec to ready is the
// set-up time, which includes the dataset load and the WAL write.
func launch(w *Workload, binDir, workDir string) (*running, error) {
	port, err := freePortRun(1)
	if err != nil {
		return nil, err
	}
	r := &running{base: fmt.Sprintf("http://127.0.0.1:%d", port), proxied: w.Backends > 0}
	var args []string
	var ready string
	if !r.proxied {
		args = append([]string{filepath.Join(binDir, "ebid-server"), "-addr", fmt.Sprintf("127.0.0.1:%d", port)}, w.ServerFlags...)
		ready = r.base + "/healthz"
		r.backends = []string{r.base}
	} else {
		bp, err := freePortRun(w.Backends)
		for err == nil && port >= bp && port < bp+w.Backends {
			bp, err = freePortRun(w.Backends) // the proxy's own port is not yet bound
		}
		if err != nil {
			return nil, err
		}
		r.walDir, err = os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, err
		}
		flags := ""
		for i, f := range w.ServerFlags {
			if i > 0 {
				flags += " "
			}
			flags += f
		}
		args = []string{filepath.Join(binDir, "ebid-proxy"),
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-backends", strconv.Itoa(w.Backends),
			"-base-port", strconv.Itoa(bp),
			"-wal-dir", r.walDir,
			"-server-bin", filepath.Join(binDir, "ebid-server"),
			"-server-flags", flags,
		}
		ready = r.base + "/admin/proxy/ready"
		for i := 0; i < w.Backends; i++ {
			r.backends = append(r.backends, fmt.Sprintf("http://127.0.0.1:%d", bp+i))
		}
	}
	r.log, err = os.CreateTemp(workDir, w.Name+"-*.log")
	if err != nil {
		return nil, err
	}
	r.cmd = exec.Command(args[0], args[1:]...)
	r.cmd.Stdout, r.cmd.Stderr = r.log, r.log
	began := time.Now()
	if err := r.cmd.Start(); err != nil {
		r.log.Close()
		return nil, fmt.Errorf("start %s: %w", args[0], err)
	}
	r.waited = make(chan struct{})
	go func() {
		_ = r.cmd.Wait() // a killed or crashed process is reported through waited
		close(r.waited)
	}()
	track(r)
	client := &http.Client{Timeout: time.Second}
	deadline := began.Add(120 * time.Second)
	for {
		resp, err := client.Get(ready)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-r.waited:
			tail := logTail(r.log.Name())
			r.stop()
			return nil, fmt.Errorf("%s exited before ready:\n%s", filepath.Base(args[0]), tail)
		default:
		}
		if time.Now().After(deadline) {
			tail := logTail(r.log.Name())
			r.stop()
			return nil, fmt.Errorf("%s not ready after 120s:\n%s", filepath.Base(args[0]), tail)
		}
		time.Sleep(time.Millisecond)
	}
	r.setup = time.Since(began)
	return r, nil
}

// logTail returns the last lines of a program log, for error messages.
func logTail(path string) string {
	b, _ := os.ReadFile(path) // a missing log leaves the message empty
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

var (
	liveMu sync.Mutex
	live   = map[*running]bool{}
)

func track(r *running) {
	liveMu.Lock()
	live[r] = true
	liveMu.Unlock()
}

// pids maps every program process of the topology to its role.
func (r *running) pids() map[int]string {
	out := map[int]string{}
	if r.cmd == nil || r.cmd.Process == nil {
		return out
	}
	if !r.proxied {
		out[r.cmd.Process.Pid] = "ebid-server"
		return out
	}
	out[r.cmd.Process.Pid] = "ebid-proxy"
	for _, pid := range childrenOf(r.cmd.Process.Pid) {
		out[pid] = "ebid-server"
	}
	return out
}

// stopTimeout bounds a graceful stop. ebid-proxy's own budget is its
// drain timeout (10 s by default) for the front, then the backends' drain
// budget (the same plus 2 s) for its supervisor.
const stopTimeout = 30 * time.Second

// stop ends the topology and waits for it. SIGTERM takes each program
// down its own way: ebid-server drains and flushes its WAL, and
// ebid-proxy's supervisor stops and reaps every backend before the proxy
// exits. Past stopTimeout the proxy and its backends are killed.
func (r *running) stop() {
	liveMu.Lock()
	ok := live[r]
	delete(live, r)
	liveMu.Unlock()
	if !ok {
		return
	}
	_ = r.cmd.Process.Signal(syscall.SIGTERM) // already dead is fine
	select {
	case <-r.waited:
	case <-time.After(stopTimeout):
		kids := childrenOf(r.cmd.Process.Pid)
		_ = r.cmd.Process.Kill()
		for _, pid := range kids {
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
		<-r.waited
		waitGone(kids, 10*time.Second)
	}
	r.log.Close()
	os.Remove(r.log.Name())
	if r.walDir != "" {
		os.RemoveAll(r.walDir)
	}
}

// waitGone waits until each pid has exited (gone, or a zombie for its
// new parent to reap), or until the timeout.
func waitGone(pids []int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for _, pid := range pids {
		for time.Now().Before(deadline) {
			if st, err := readStat(pid); err != nil || st.State == 'Z' {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// stopAll stops every topology still running (exit and signal paths).
func stopAll() {
	liveMu.Lock()
	var rs []*running
	for r := range live {
		rs = append(rs, r)
	}
	liveMu.Unlock()
	for _, r := range rs {
		r.stop()
	}
}
