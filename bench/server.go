package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// target is one running instance of the program under test. Everything
// the benchmark learns about it comes from outside: HTTP replies, its
// /metrics page, and the kernel's accounting of its process.
type target interface {
	base() string
	stats() (procStats, error)
	stop() error
}

// procStats is the process accounting read around each phase.
type procStats struct {
	cpu   time.Duration // user + system CPU time
	gcs   int64         // completed GC cycles
	hwmMB float64       // peak resident set (VmHWM)
}

// launcher starts a fresh instance; continuous mounts the tick endpoints.
type launcher func(continuous bool) (target, error)

// buildServe compiles cmd/serve from the repository at root into dir.
func buildServe(root, dir string) (string, error) {
	bin := filepath.Join(dir, "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/serve: %w", err)
	}
	return bin, nil
}

// serveLauncher starts the built binary on a loopback port. The runtime's
// GC trace is switched on so GC cycles can be counted from stderr.
func serveLauncher(bin string) launcher {
	return func(continuous bool) (target, error) {
		args := []string{"-addr", "127.0.0.1:0"}
		if continuous {
			args = append(args, "-continuous")
		}
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		stderr, err := cmd.StderrPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		s := &serveProc{cmd: cmd, drained: make(chan struct{}, 2)}
		go s.countGCs(stderr)
		line, err := bufio.NewReader(stdout).ReadString('\n')
		go func() {
			_, _ = io.Copy(io.Discard, stdout)
			s.drained <- struct{}{}
		}()
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "listening on ")
		if err != nil || !ok {
			_ = s.stop()
			return nil, fmt.Errorf("serve did not report its address (read %q): %v", line, err)
		}
		s.url = "http://" + addr
		return s, nil
	}
}

// serveProc is a cmd/serve child process.
type serveProc struct {
	cmd     *exec.Cmd
	url     string
	gcs     atomic.Int64
	drained chan struct{}
}

func (s *serveProc) base() string { return s.url }

// countGCs follows the "gc N @..." lines of the runtime's GC trace.
func (s *serveProc) countGCs(r io.Reader) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "gc "); ok {
			if n, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64); err == nil {
				s.gcs.Store(n)
			}
		}
	}
	s.drained <- struct{}{}
}

func (s *serveProc) stats() (procStats, error) {
	st, err := readProc(s.cmd.Process.Pid)
	st.gcs = s.gcs.Load()
	return st, err
}

// stop interrupts the server, which drains and exits, and waits for it and
// for its output pipes; a server that does not exit in time is killed.
func (s *serveProc) stop() error {
	_ = s.cmd.Process.Signal(os.Interrupt)
	timer := time.AfterFunc(10*time.Second, func() { _ = s.cmd.Process.Kill() })
	defer timer.Stop()
	for i := 0; i < cap(s.drained); i++ {
		<-s.drained
	}
	err := s.cmd.Wait()
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.Sys().(syscall.WaitStatus).Signaled() {
		return fmt.Errorf("serve did not shut down: %w", err)
	}
	return err
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times.
const clockTick = 100

// readProc reads a process's CPU time and VmHWM from /proc.
func readProc(pid int) (procStats, error) {
	var st procStats
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	f := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(f) < 13 {
		return st, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return st, err
	}
	st.cpu = time.Duration(utime+stime) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return st, err
			}
			st.hwmMB = kb / 1024
		}
	}
	return st, nil
}

// scrape fetches and parses the target's /metrics page.
func scrape(client *http.Client, base string) (exposition, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// exposition maps each sample's series ("name{labels}") to its value.
type exposition map[string]float64

// parseExposition reads the Prometheus text format. Label values may hold
// spaces (routes do), so the value is whatever follows the last space.
func parseExposition(r io.Reader) (exposition, error) {
	out := make(exposition)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after minus before for one series; a series absent from a
// scrape counts as zero.
func delta(before, after exposition, series string) float64 {
	return after[series] - before[series]
}
