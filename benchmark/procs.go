package main

import (
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"geofootprint/internal/hashring"
)

// The program under test runs as child processes built from
// cmd/geoserve and cmd/georouter; this file builds, starts, probes
// and stops them. Nothing here is timed except set-up.

// buildServers compiles the two server binaries of the checkout at
// root into binDir. A missing source tree is a set-up failure.
func buildServers(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(os.PathSeparator), "./cmd/geoserve", "./cmd/georouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building servers in %s: %v\n%s", root, err, out)
	}
	return nil
}

// proc is one child server.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when Wait has returned
	url  string
}

// freeAddrs reserves n distinct loopback ports by binding them all and
// then releasing them. Asked for one at a time, the kernel can hand out
// again a port whose server was started but has not bound it yet; the
// second server then fails to bind, and its health probe is answered by
// the first.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// spawn starts bin with args plus "-addr addr", logging to logPath.
func spawn(bin, addr, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without unwinding, its servers go too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{name: filepath.Base(bin), cmd: cmd, log: logf, done: make(chan struct{}), url: "http://" + addr}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled server carries nothing
		close(p.done)
	}()
	return p, nil
}

// stop signals the process and waits until it has ended, killing it if
// a graceful shutdown takes longer than grace.
func (p *proc) stop(sig syscall.Signal, grace time.Duration) {
	_ = p.cmd.Process.Signal(sig) // already exited: nothing to signal
	select {
	case <-p.done:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// cpuSeconds is utime+stime of the process from /proc/<pid>/stat, in
// seconds (USER_HZ is 100 on Linux).
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; the
	// numbered fields start after the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// rssPeakMiB is VmHWM of the process from /proc/<pid>/status.
func (p *proc) rssPeakMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// rig is the set of servers one workload talks to.
type rig struct {
	procs  []*proc  // every server; cluster_r2: the shards, then the router
	url    string   // where the workload's traffic goes
	shards []string // shard base URLs (cluster only)
	snap   string   // snapshot the ingest server checkpoints to

	spawned time.Time // when the first server was started
	owner   *env
}

// stop ends every server of the rig and waits for each to exit.
func (r *rig) stop() {
	r.owner.mu.Lock()
	procs := r.procs
	delete(r.owner.rigs, r)
	r.owner.mu.Unlock()
	// Last started first: the router goes before its shards. SIGTERM
	// makes an ingest server checkpoint before it exits.
	for i := len(procs) - 1; i >= 0; i-- {
		procs[i].stop(syscall.SIGTERM, 30*time.Second)
	}
}

// abort is the way out on SIGINT or SIGTERM: no server outlives the
// benchmark, nothing is reported.
func (e *env) abort() {
	e.mu.Lock()
	var live []*rig
	for r := range e.rigs {
		live = append(live, r)
	}
	e.mu.Unlock()
	for _, r := range live {
		r.stop()
	}
	os.RemoveAll(e.work)
	os.Exit(1)
}

func (r *rig) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range r.procs {
		c, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

func (r *rig) rssPeakMiB() (float64, error) {
	var sum float64
	for _, p := range r.procs {
		m, err := p.rssPeakMiB()
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum, nil
}

// getJSON decodes the JSON body of a GET into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitHealthy polls p's /healthz until it reports status ok, the
// process dies, or ctx ends.
func waitHealthy(ctx context.Context, c *http.Client, p *proc) error {
	for {
		var h struct {
			Status string `json:"status"`
		}
		if err := getJSON(c, p.url+"/healthz", &h); err == nil && h.Status == "ok" {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log.Name())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// rigKind names a topology; each workload runs on exactly one.
type rigKind int

const (
	rigSingle  rigKind = iota // 1 × geoserve -db corpus -cache-size 4096
	rigCluster                // 4 × geoserve -shard-id behind georouter -replicas 2
	rigIngest                 // 1 × geoserve -wal -snapshot <corpus copy> -sync none -cache-size 4096
)

// cacheSize is the result cache capacity of every single server.
const cacheSize = 4096

// startRig spawns the servers of kind in a fresh directory under
// e.work and returns once every /healthz is ok. On error everything
// already started is stopped.
func (e *env) startRig(ctx context.Context, kind rigKind) (_ *rig, err error) {
	dir, err := os.MkdirTemp(e.work, "rig-")
	if err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(clusterShards + 1)
	if err != nil {
		return nil, err
	}
	r := &rig{owner: e}
	e.mu.Lock()
	e.rigs[r] = true
	e.mu.Unlock()
	defer func() {
		if err != nil {
			r.stop()
		}
	}()
	serve := filepath.Join(e.bin, "geoserve")
	start := func(bin, name string, args ...string) (*proc, error) {
		if r.spawned.IsZero() {
			r.spawned = time.Now()
		}
		p, err := spawn(bin, addrs[len(r.procs)], filepath.Join(dir, name+".log"), args...)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		r.procs = append(r.procs, p)
		e.mu.Unlock()
		return p, nil
	}
	switch kind {
	case rigSingle:
		p, err := start(serve, "geoserve", "-db", e.corpus.path, "-cache-size", strconv.Itoa(cacheSize))
		if err != nil {
			return nil, err
		}
		r.url = p.url
	case rigIngest:
		// The server rewrites its snapshot on every checkpoint, so it
		// gets a private copy of the corpus file. The WAL is not
		// fsynced: on this host an fsync takes 0.2 to 3 ms depending on
		// the hour, and with one fsync per batch the reader's median
		// followed it (same seed, same code: 2.9 to 3.9 ms). The traced
		// run prices the fsync on its own, as wal.fsync_us.
		r.snap = filepath.Join(dir, "ingest.snap")
		if err := copyFile(e.corpus.path, r.snap); err != nil {
			return nil, err
		}
		p, err := start(serve, "geoserve", "-wal", filepath.Join(dir, "ingest.wal"),
			"-snapshot", r.snap, "-sync", "none", "-cache-size", strconv.Itoa(cacheSize))
		if err != nil {
			return nil, err
		}
		r.url = p.url
	case rigCluster:
		for i, db := range e.corpus.shards {
			p, err := start(serve, shardID(i), "-db", db, "-shard-id", shardID(i))
			if err != nil {
				return nil, err
			}
			r.shards = append(r.shards, p.url)
		}
	}
	for _, p := range r.procs {
		if err := waitHealthy(ctx, e.admin, p); err != nil {
			return nil, err
		}
	}
	if kind == rigCluster {
		// The router probes its shards once at start-up, so it starts
		// after they answer and sees all four healthy at once.
		mapPath := filepath.Join(dir, "cluster.json")
		f, err := os.Create(mapPath)
		if err != nil {
			return nil, err
		}
		err = hashring.EncodeMap(f, shardMap(r.shards))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		p, err := start(filepath.Join(e.bin, "georouter"), "georouter",
			"-map", mapPath, "-replicas", strconv.Itoa(clusterReplicas))
		if err != nil {
			return nil, err
		}
		r.url = p.url
		if err := waitHealthy(ctx, e.admin, p); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
