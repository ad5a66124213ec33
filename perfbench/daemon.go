package main

// The refidemd subprocess: spawn, readiness, /proc accounting and
// shutdown.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running refidemd.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	waited chan error
	// setup is the time from spawning the process to its first 200 from
	// /healthz.
	setup time.Duration
}

// startDaemon spawns bin with default flags plus an ephemeral loopback
// port and extra, and waits for /healthz. The daemon's stderr goes to
// logPath.
func startDaemon(ctx context.Context, bin, logPath string, extra ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The daemon must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, waited: make(chan error, 1)}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		first := true
		for sc.Scan() {
			if first {
				lines <- sc.Text()
				first = false
			}
		}
		close(lines)
		d.waited <- cmd.Wait()
	}()
	select {
	case line, ok := <-lines:
		addr, found := strings.CutPrefix(line, "listening on ")
		if !ok || !found {
			d.kill()
			return nil, fmt.Errorf("refidemd did not announce its address (see %s)", logPath)
		}
		d.url = addr
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("refidemd did not start within 30s (see %s)", logPath)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	c := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := c.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.setup = now().Sub(start)
				return d, nil
			}
		}
		if now().Sub(start) > 30*time.Second || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("refidemd /healthz never answered 200 (see %s)", logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the daemon to drain and exit, and waits for it; a daemon
// that does not exit in 20 s is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	select {
	case err := <-d.waited:
		return err
	case <-time.After(20 * time.Second):
		d.kill()
		return errors.New("refidemd did not drain within 20s")
	}
}

// kill stops the daemon without draining and waits for it.
func (d *daemon) kill() error {
	d.cmd.Process.Kill()
	return <-d.waited
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for user space.
const clockTicks = 100

// cpuTime is the daemon's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime field 14 and stime field 15.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// hostCPU reads the host-wide CPU time counters of /proc/stat: the total
// over every state, and steal (time the hypervisor ran other guests).
func hostCPU() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

// peakRSS is the daemon's VmHWM in MB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
