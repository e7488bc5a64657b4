package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bionav/internal/obs"
	"bionav/navbench/harness"
)

// server is one bionav-server child process.
type server struct {
	cmd   *exec.Cmd
	api   *harness.HTTP
	log   *os.File
	db    string        // the database directory it serves
	setup time.Duration // exec to the first 200 from /readyz
}

// startServer execs bin with args plus a free loopback -addr, sends its
// stdout and stderr to logPath, and waits for /readyz.
func startServer(bin string, args []string, logPath string, conns int) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the driver dies, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	s := &server{cmd: cmd, log: logf, api: &harness.HTTP{Base: "http://" + addr, Client: &http.Client{Transport: tr}}}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(s.api.Base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(t0)
				return s, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			s.stop()
			return nil, fmt.Errorf("server on %s not ready after 30s (log: %s)", addr, logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop drains the server with SIGTERM, kills it if it has not exited
// within 10 s, and waits for it.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // a drained server may exit non-zero; the log keeps why
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.api.Client.CloseIdleConnections()
	s.log.Close()
}

// metrics scrapes and parses /metrics.
func (s *server) metrics(ctx context.Context) (*obs.MetricsSnapshot, error) {
	raw, err := s.api.Get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseExposition(strings.NewReader(string(raw)))
}

// cpuTicks reads the server's utime+stime in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields restart after ')'.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw)[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad cpu fields in /proc stat")
	}
	return ut + st, nil
}

// peakRSSMB reads the server's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostTicks reads the machine-wide CPU time from /proc/stat: the ticks
// the hypervisor gave to other guests (steal) and all ticks.
func hostTicks() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	// user nice system idle iowait irq softirq steal; guest time that
	// follows is already counted in user and nice.
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
