package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one separately started sftserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives cmd.Wait's result once
}

// startServer starts sftserve with deployment flags only (listen
// address, network file and, when walDir is set, the WAL directory)
// and waits for its listening line. Its GOMAXPROCS is left to the Go
// default, the host's CPU count.
func startServer(bin, netFile, walDir string) (*server, error) {
	args := []string{"-listen", "127.0.0.1:0", "-network", netFile}
	if walDir != "" {
		args = append(args, "-wal-dir", walDir)
	}
	cmd := exec.Command(bin, args...)
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	cmd.Env = env
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// Find the listening line, then keep draining the access log
		// so the server never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !found && strings.Contains(line, `msg="sftserve listening"`) {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						addr <- a
						found = true
					}
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		if !found {
			close(addr)
		}
		s.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			err := <-s.done
			return nil, fmt.Errorf("sftserve exited before listening: %v", err)
		}
		s.base = "http://" + a
		return s, nil
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, errors.New("sftserve did not report its address within 60s")
	}
}

// stop asks the server to shut down gracefully and waits for it; after
// 30 s it is killed.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return err
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("sftserve did not stop within 30s of SIGTERM")
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(strconv.Itoa(s.cmd.Process.Pid))
}

// cpuTime is the CPU time the server process has used so far, all
// threads, from /proc/<pid>/stat (utime + stime, in USER_HZ ticks of
// 10 ms). Time the hypervisor gave to other guests is accounted as
// steal, not here.
func (s *server) cpuTime() (time.Duration, error) {
	path := "/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat"
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from
	// the closing parenthesis.
	i := bytes.LastIndexByte(blob, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse %s", path)
	}
	f := strings.Fields(string(blob[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("parse %s: %d fields", path, len(f))
	}
	var ticks int64
	for _, x := range f[11:13] { // utime, stime: fields 14 and 15
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		ticks += v
	}
	const userHZ = 100 // fixed by the Linux ABI on every architecture Go supports here
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// admitResponse mirrors the server's AdmitResponse.
type admitResponse struct {
	ID      int64   `json:"id"`
	Cost    float64 `json:"cost"`
	WaitMS  float64 `json:"wait_ms"`
	SolveMS float64 `json:"solve_ms"`
}

// getJSON fetches a JSON document from the server.
func getJSON(c *http.Client, url string, dst any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// metricsDoc is the subset of GET /metrics the benchmark reads.
type metricsDoc struct {
	Floats map[string]float64 `json:"floats"`
	Gauges map[string]int64   `json:"gauges"`
}

func (m metricsDoc) value(name string) float64 {
	if v, ok := m.Floats[name]; ok {
		return v
	}
	return float64(m.Gauges[name])
}
