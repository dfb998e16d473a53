package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// token is the control-plane bearer token every server gets.
const token = "bench"

// proc is one navserve process.
type proc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
	err  error         // its exit status, valid after done
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// serverFlags are the flags every navserve of a workload runs with:
// the file store, no tracing, no adaptation (it fires on a wall clock
// and would swap structures mid-run at random moments).
func serverFlags(w workload, addr, storeDir string) []string {
	return append([]string{"-addr", addr, "-api-token", token, "-trace=false", "-adapt-interval", "0",
		"-store", "file", "-store-dir", storeDir}, w.serverArgs...)
}

// boot starts navserve and waits until GET /readyz answers 200. It
// returns the process and the time from launch to ready.
func boot(bin string, w workload, storeDir string) (*proc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, serverFlags(w, addr, storeDir)...)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &proc{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case <-p.done:
			return nil, 0, fmt.Errorf("navserve exited before ready: %v", p.err)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			p.kill()
			return nil, 0, fmt.Errorf("navserve not ready after 60s")
		}
	}
}

// kill SIGKILLs the process and waits for it.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// stop asks the process to shut down gracefully and waits for it. It
// may be called again after the process has exited.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return p.err
	case <-time.After(20 * time.Second):
		p.kill()
		return fmt.Errorf("navserve did not stop within 20s")
	}
}

// hwm returns the process's peak resident set (VmHWM) in MiB.
func (p *proc) hwm() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads every series of GET /metrics into a map keyed by the
// series as written, labels included.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// copyDir copies a flat directory (the file store's snapshot, log and
// lock) so each server instance replays the same store.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
