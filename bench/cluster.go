package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outDir holds everything a run leaves behind (git-ignored), relative
// to the bench directory the command runs in.
const outDir = "out"

// moduleRoot walks up from the working directory to the go.mod that
// declares module drtree: the tree whose cmd/drtreed is under test.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if line, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(line) == "module drtree" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod declaring module drtree above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles ./cmd/drtreed of the working tree and returns
// the binary's path and the build time.
func buildDaemon() (string, time.Duration, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", 0, err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "drtreed"))
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/drtreed")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/drtreed: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one spawned drtreed child.
type daemon struct {
	node     int
	cmd      *exec.Cmd
	overlay  string // binary RPC + overlay address
	http     string // /healthz, /statsz, /ws address
	stderr   *os.File
	exited   chan struct{} // closed once Wait returned
	waitErr  error
	peakRSS  float64 // MiB, sampled just before the kill
	killedBy bool    // true once the bench itself stopped it
}

// cluster is the set of daemons of one set-up.
type cluster struct {
	daemons []*daemon
	dataDir string // parent of the per-daemon -data-dir trees ("" when memory-only)
	mu      sync.Mutex
}

// running is the cluster whose daemons are up, for the signal handler:
// children must not outlive a killed bench.
var running atomic.Pointer[cluster]

// freePorts picks n loopback ports by binding and releasing them. The
// window between release and the daemon's own bind is why spawn retries
// once.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("picking a free port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// daemonCPU gives each daemon a core of its own as far as the machine
// has them: the publishing daemon takes the first allowed core, the
// others go round the rest. Daemons of a real deployment do not share
// cores with each other; left floating on a small box they do, the
// kernel's placement differs from one set-up to the next, and Notify
// latency follows it (measured on selective-3d, same inputs and the
// same overlay shape: per-instance p50 from 445 to 816 us floating,
// 369 to 430 us placed). The generator is not placed. -1 means no
// placement (no affinity support, or a single core).
func daemonCPU(i int, cpus []int) int {
	switch {
	case len(cpus) < 2:
		return -1
	case i == 0:
		return cpus[0]
	default:
		return cpus[1+(i-1)%(len(cpus)-1)]
	}
}

// spawnCluster starts the workload's daemons and waits until each one
// answers /healthz. A first attempt that loses a port race is retried
// once on fresh ports.
func spawnCluster(bin string, s spec, tag string) (*cluster, error) {
	c, err := spawnOnce(bin, s, tag)
	if err != nil {
		c, err = spawnOnce(bin, s, tag+"-retry")
	}
	return c, err
}

func spawnOnce(bin string, s spec, tag string) (*cluster, error) {
	addrs, err := freePorts(2 * s.Daemons)
	if err != nil {
		return nil, err
	}
	overlay, httpAddrs := addrs[:s.Daemons], addrs[s.Daemons:]
	c := &cluster{}
	running.Store(c)
	if s.Durable {
		if c.dataDir, err = os.MkdirTemp(outDir, "data-"+tag+"-"); err != nil {
			return nil, err
		}
	}
	cpus := allowedCPUs()
	for i := 0; i < s.Daemons; i++ {
		args := []string{
			"-node", strconv.Itoa(i),
			"-peers", strings.Join(overlay, ","),
			"-space", "x,y",
			"-http", httpAddrs[i],
		}
		if s.Durable {
			args = append(args, "-data-dir", filepath.Join(c.dataDir, strconv.Itoa(i)))
		}
		logf, err := os.Create(filepath.Join(outDir, fmt.Sprintf("daemon-%s-%d.stderr", tag, i)))
		if err != nil {
			c.kill()
			return nil, err
		}
		d := &daemon{node: i, overlay: overlay[i], http: httpAddrs[i], stderr: logf, exited: make(chan struct{})}
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stderr = logf
		if err := startOnCPU(d.cmd, daemonCPU(i, cpus)); err != nil {
			logf.Close()
			c.kill()
			return nil, fmt.Errorf("starting daemon %d: %w", i, err)
		}
		go func() {
			d.waitErr = d.cmd.Wait()
			close(d.exited)
		}()
		c.daemons = append(c.daemons, d)
	}
	for _, d := range c.daemons {
		if err := d.awaitReady(10 * time.Second); err != nil {
			c.kill()
			return nil, err
		}
	}
	return c, nil
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func (d *daemon) awaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("daemon %d exited before it was ready: %v (see %s)", d.node, d.waitErr, d.stderr.Name())
		default:
		}
		resp, err := httpClient.Get("http://" + d.http + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("daemon %d not ready after %v (see %s)", d.node, timeout, d.stderr.Name())
}

// earlyExit reports the first daemon that ended without the bench
// having stopped it: that fails the run whatever the numbers say.
func (c *cluster) earlyExit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.daemons {
		select {
		case <-d.exited:
			if !d.killedBy {
				return fmt.Errorf("daemon %d exited during the run: %v (see %s)", d.node, d.waitErr, d.stderr.Name())
			}
		default:
		}
	}
	return nil
}

// kill stops every daemon and waits for it, then removes the data
// dirs. Daemons are killed, not shut down: a graceful close
// unsubscribes a whole population one ID at a time, and shutdown is not
// what any workload measures. Safe to call twice.
func (c *cluster) kill() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.daemons {
		select {
		case <-d.exited:
		default:
			d.peakRSS, _ = peakRSSMiB(d.cmd.Process.Pid)
			d.killedBy = true
			d.cmd.Process.Kill()
			<-d.exited
		}
		d.stderr.Close()
	}
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
		c.dataDir = ""
	}
}

// removeLogs deletes the daemons' stderr captures: after a clean
// instance nobody will read them.
func (c *cluster) removeLogs() {
	for _, d := range c.daemons {
		os.Remove(d.stderr.Name())
	}
}

// statsz is the part of a daemon's /statsz the ledger reads.
type statsz struct {
	Subscribers int `json:"subscribers"`
	Transport   struct {
		Sent, Delivered, Dropped, Bounced, Reconnects uint64
	} `json:"transport"`
	Gateways []struct {
		Subscribers int
		QueueDepth  int
		Dropped     uint64
	} `json:"gateways"`
	Actors []struct {
		ID  int64 `json:"id"`
		Top int   `json:"top"`
	} `json:"actors"`
}

func (d *daemon) scrape() (statsz, error) {
	var st statsz
	resp, err := httpClient.Get("http://" + d.http + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("daemon %d /statsz: %w", d.node, err)
	}
	return st, nil
}

// scrapeAll reads every daemon's /statsz.
func (c *cluster) scrapeAll() ([]statsz, error) {
	out := make([]statsz, len(c.daemons))
	for i, d := range c.daemons {
		st, err := d.scrape()
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// cpuSeconds reads each daemon's user+system CPU time; ok is false
// where the platform has no /proc.
func (c *cluster) cpuSeconds() (per []float64, ok bool) {
	per = make([]float64, len(c.daemons))
	for i, d := range c.daemons {
		v, ok := procCPUSeconds(d.cmd.Process.Pid)
		if !ok {
			return nil, false
		}
		per[i] = v
	}
	return per, true
}
