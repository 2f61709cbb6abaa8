package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles ./cmd/rds-serve from the tree under root into
// root/.bench_build and returns the binary's path.
func buildServer(root string) (string, error) {
	// Absolute, because go build resolves -o from root and the server is
	// started from the benchmark's own working directory.
	root, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	bin := filepath.Join(root, ".bench_build", "rds-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rds-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building rds-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running rds-serve process with default flags.
type server struct {
	cmd  *exec.Cmd
	base string
	out  *logTail
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done closes
}

// startServer execs bin on a free loopback port. Only -addr is set, so
// every other knob is the service default.
func startServer(bin string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + addr, out: &logTail{}, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr)
	s.cmd.Stdout = s.out
	s.cmd.Stderr = s.out
	// The server must not outlive the benchmark, even if the benchmark
	// is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rds-serve: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitHealthy polls /healthz until it answers 200, the process exits,
// or timeout passes.
func (s *server) waitHealthy(c *client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("rds-serve exited during start-up: %v\n%s", s.err, s.out)
		default:
		}
		if code, _, err := c.get(s.base + "/healthz"); err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rds-serve not healthy after %s\n%s", timeout, s.out)
		}
		// Short next to the few milliseconds a start-up takes, so the
		// poll adds little to setup_s.
		time.Sleep(200 * time.Microsecond)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

var shardsRE = regexp.MustCompile(`(\d+) shards/audit`)

// gomaxprocs reads the server's GOMAXPROCS from its start-up line: with
// default flags the per-audit shard count is GOMAXPROCS. It returns 0
// when the line is missing.
func (s *server) gomaxprocs() int {
	m := shardsRE.FindStringSubmatch(s.out.String())
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1]) // the pattern admits only digits
	return n
}

// stop sends SIGTERM, waits up to five seconds for a graceful exit,
// then kills the process, and always waits for it to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// logTail keeps the first line and the last few KiB of the server's
// output, for the start-up banner and for error reports.
type logTail struct {
	mu    sync.Mutex
	first []byte
	tail  []byte
}

const logTailBytes = 4 << 10

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.first == nil || !bytes.Contains(l.first, []byte("\n")) {
		l.first = append(l.first, p...)
		if i := bytes.IndexByte(l.first, '\n'); i >= 0 {
			l.first = l.first[:i+1]
		}
	}
	l.tail = append(l.tail, p...)
	if over := len(l.tail) - logTailBytes; over > 0 {
		l.tail = append([]byte(nil), l.tail[over:]...)
	}
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.first) + "...\n" + string(l.tail)
}

// client is the benchmark's HTTP client: one pool of at most conns
// keep-alive connections to the server.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) get(url string) (int, []byte, error) {
	return c.do(http.MethodGet, url, "", nil)
}

func (c *client) post(url, ctype string, body []byte) (int, []byte, error) {
	return c.do(http.MethodPost, url, ctype, body)
}

func (c *client) do(method, url, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// postJSON posts body and decodes a 2xx response into v.
func (c *client) postJSON(url, ctype string, body []byte, v any) error {
	code, out, err := c.post(url, ctype, body)
	if err != nil {
		return err
	}
	if code/100 != 2 {
		return fmt.Errorf("POST %s: %d %s", url, code, out)
	}
	return json.Unmarshal(out, v)
}

// getJSON fetches url and decodes a 200 response into v.
func (c *client) getJSON(url string, v any) error {
	code, out, err := c.get(url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, code, out)
	}
	return json.Unmarshal(out, v)
}
