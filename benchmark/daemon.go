package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is where one harness process builds and runs things: the checkout
// root, the build directory under it and a scratch directory of its own.
type env struct {
	root  string // the checkout (directory of the hbsp go.mod)
	build string // root/benchmark/.bench_build
	tmp   string // build/tmp/run-<pid>, removed on exit
}

// findRoot walks up from dir to the directory holding the hbsp module.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module hbsp\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no hbsp module above the working directory")
		}
		dir = parent
	}
}

func newEnv(root string) (*env, error) {
	root, err := findRoot(root)
	if err != nil {
		return nil, err
	}
	e := &env{root: root, build: filepath.Join(root, "benchmark", ".bench_build")}
	e.tmp = filepath.Join(e.build, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	// A harness that was killed outright could not remove its directory:
	// sweep those whose process is gone.
	stale, _ := filepath.Glob(filepath.Join(e.build, "tmp", "run-*"))
	for _, dir := range stale {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(dir), "run-"))
		if err == nil && pid != os.Getpid() && syscall.Kill(pid, 0) == syscall.ESRCH {
			os.RemoveAll(dir)
		}
	}
	return e, nil
}

// buildHbspd compiles the daemon from the checkout, the way a user gets it.
func (e *env) buildHbspd() (string, error) {
	out := filepath.Join(e.build, "bin", "hbspd")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/hbspd")
	cmd.Dir = e.root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building hbspd: %w", err)
	}
	return out, nil
}

// children tracks every process and temp directory the harness owns, so the
// deferred cleanup and the signal handler stop and remove all of them. The
// prototype of this harness leaked multi-GB daemons when its stdout closed;
// Pdeathsig covers the case where the harness itself is killed outright.
var children struct {
	sync.Mutex
	procs map[*exec.Cmd]bool
	dirs  []string
}

func track(cmd *exec.Cmd) {
	children.Lock()
	if children.procs == nil {
		children.procs = map[*exec.Cmd]bool{}
	}
	children.procs[cmd] = true
	children.Unlock()
}

func untrack(cmd *exec.Cmd) {
	children.Lock()
	delete(children.procs, cmd)
	children.Unlock()
}

// cleanup kills what is still running and removes the temp directories.
func cleanup() {
	children.Lock()
	defer children.Unlock()
	for cmd := range children.procs {
		cmd.Process.Kill()
		cmd.Wait()
	}
	children.procs = nil
	for _, d := range children.dirs {
		os.RemoveAll(d)
	}
	children.dirs = nil
}

// handleSignals makes SIGINT/SIGTERM clean up before exiting.
func handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		cleanup()
		os.Exit(130)
	}()
}

// startChild starts cmd so that it dies with the harness. Pdeathsig fires
// when the creating thread exits, so callers run on the main goroutine,
// which main locks to the process's first thread.
func startChild(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	track(cmd)
	return nil
}

// daemon is one running hbspd child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs hbspd on a free port with otherwise default flags (the
// configuration users get) and waits until /healthz answers 200.
func startDaemon(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Stderr = nil // the daemon's log lines are not part of any metric
	if err := startChild(cmd); err != nil {
		return nil, fmt.Errorf("starting hbspd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	fmt.Fprintf(os.Stderr, "benchmark: hbspd pid=%d addr=%s\n", cmd.Process.Pid, addr)
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("hbspd on %s not healthy after 20s: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon (SIGTERM), kills it if it lingers, and waits.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	untrack(d.cmd)
}

// procStats are a process's CPU time and peak resident set from /proc.
type procStats struct {
	cpuSeconds float64
	peakRSSMB  float64
}

// readProcStats reads CPU time as the nanoseconds on CPU summed over the
// process's threads (schedstat), which is far finer than the 10 ms ticks of
// /proc/<pid>/stat.
func readProcStats(pid int) (procStats, error) {
	var st procStats
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return st, fmt.Errorf("no schedstat for pid %d", pid)
	}
	for _, t := range tasks {
		data, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			ns, _ := strconv.ParseFloat(f[0], 64)
			st.cpuSeconds += ns / 1e9
		}
	}

	status, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	defer status.Close()
	sc := bufio.NewScanner(status)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			st.peakRSSMB = kb / 1024
		}
	}
	return st, sc.Err()
}
