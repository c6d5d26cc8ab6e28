package main

import (
	"bufio"
	"debug/buildinfo"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running dmcd process.
type proc struct {
	cmd     *exec.Cmd
	addr    string
	done    chan error
	once    sync.Once
	stopErr error
}

// spawn starts dmcd listening on a loopback port the kernel picks and
// waits until it reports the address.
func spawn(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs()))
	cmd.Stderr = os.Stderr
	// The daemon dies with the generator even if the generator is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "dmcd: listening on "); ok {
				addrc <- a
				break
			}
		}
		// Keep draining so the daemon never blocks on a full pipe; Wait
		// closes the pipe once the process has exited.
		_, _ = io.Copy(io.Discard, out)
		p.done <- cmd.Wait()
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case err := <-p.done:
		return nil, fmt.Errorf("dmcd %v exited before listening: %v", args, err)
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("dmcd %v did not start listening within 30s", args)
	}
}

// stop shuts the daemon down gracefully (SIGTERM), killing it if it has
// not exited within 20s, and waits for it. Later calls return the first
// call's result.
func (p *proc) stop() error {
	p.once.Do(func() { p.stopErr = p.terminate() })
	return p.stopErr
}

func (p *proc) terminate() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-p.done:
		return err
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return errors.New("dmcd ignored SIGTERM for 20s and was killed")
	}
}

// cpu returns the process's CPU time so far: the sum of its threads'
// run times from /proc/<pid>/task/*/schedstat, which counts nanoseconds
// where /proc/<pid>/stat counts 10ms ticks.
func (p *proc) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, os.ErrNotExist) {
			continue // the thread exited since the directory was read
		}
		if err != nil {
			return 0, err
		}
		ns, err := strconv.ParseInt(strings.Fields(string(b))[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s schedstat %q: %w", t.Name(), b, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// daemonProcs is the GOMAXPROCS every daemon runs with: nproc.
func daemonProcs() int { return runtime.NumCPU() }

// cluster is the daemon side of one set-up: a primary, plus a -follow
// standby on durable workloads.
type cluster struct {
	primary, follower *proc
	stateDir          string
}

// startCluster spawns the workload's daemons. Durable state lives under
// stateDir, on the disk of the checkout.
func startCluster(bin string, w *workload, stateDir string) (*cluster, error) {
	c := &cluster{stateDir: stateDir}
	var args []string
	if w.durable {
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, err
		}
		args = []string{"-state-dir", filepath.Join(stateDir, "primary"), "-repl-ack", "async", "-journal-nosync"}
	}
	var err error
	if c.primary, err = spawn(bin, args...); err != nil {
		return nil, err
	}
	if w.durable {
		c.follower, err = spawn(bin, "-state-dir", filepath.Join(stateDir, "follower"), "-follow", "http://"+c.primary.addr)
		if err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// stop stops the primary first, so the follower's parked long poll is
// answered, then the follower, and removes the state.
func (c *cluster) stop() error {
	var errs []error
	for _, p := range []*proc{c.primary, c.follower} {
		if p != nil {
			errs = append(errs, p.stop())
		}
	}
	errs = append(errs, os.RemoveAll(c.stateDir))
	return errors.Join(errs...)
}

// cpu sums the CPU time of every daemon process.
func (c *cluster) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range []*proc{c.primary, c.follower} {
		if p == nil {
			continue
		}
		d, err := p.cpu()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// hostInfo is the fingerprint printed with every result, so a figure is
// never compared with one taken on different hardware or software.
type hostInfo struct {
	CPUModel          string `json:"cpu_model"`
	Nproc             int    `json:"nproc"`
	GOMAXPROCSDaemon  int    `json:"gomaxprocs_daemon"`
	GOMAXPROCSLoadgen int    `json:"gomaxprocs_loadgen"`
	GoVersion         string `json:"go_version"`
	Kernel            string `json:"kernel"`
	StateFS           string `json:"state_fs"`
	// StealPct is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run: the noise the figures carry.
	StealPct float64 `json:"steal_pct"`
}

func fingerprint(dmcd, stateDir string) hostInfo {
	h := hostInfo{
		CPUModel:          "unknown",
		Nproc:             runtime.NumCPU(),
		GOMAXPROCSDaemon:  daemonProcs(),
		GOMAXPROCSLoadgen: runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		Kernel:            "unknown",
		StateFS:           fsType(stateDir),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, err := buildinfo.ReadFile(dmcd); err == nil && bi.GoVersion != runtime.Version() {
		h.GoVersion = runtime.Version() + " (dmcd " + bi.GoVersion + ")"
	}
	return h
}

// cpuStat reads the machine-wide steal and total CPU time from
// /proc/stat, in ticks; zeros when unreadable.
func cpuStat() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 1–8 are user, nice, system, idle, iowait, irq, softirq,
		// steal; guest time is already counted in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// fsType names the filesystem holding dir (created if missing).
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683e: "btrfs",
		0x794c7630: "overlayfs", 0x858458f6: "ramfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
