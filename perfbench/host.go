package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is recorded with every result, so figures from different
// machines and commits are never compared unknowingly.
type hostInfo struct {
	GitSHA     string  `json:"gitSHA"`
	GoVersion  string  `json:"goVersion"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpuModel"`
	Seed       int64   `json:"seed"`
	Steal      float64 `json:"cpuStealShare"` // over the timed window, from /proc/stat
}

func readHost(seed int64) hostInfo {
	return hostInfo{
		GitSHA:     gitSHA(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
	}
}

// gitSHA reads HEAD from the .git directory of the working directory, or
// returns "unknown" outside a git checkout.
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == name {
				return sha
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealClock reads the aggregate CPU line of /proc/stat: total jiffies
// and the steal jiffies among them.
type stealClock struct{ total, steal uint64 }

func readStealClock() (stealClock, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return stealClock{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return stealClock{}, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return stealClock{}, false
	}
	var c stealClock
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return stealClock{}, false
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c, true
}

// stealWindow measures the host's CPU-steal share between start and
// finish; 0 where /proc/stat is unavailable.
type stealWindow struct {
	start stealClock
	ok    bool
}

func startSteal() stealWindow {
	c, ok := readStealClock()
	return stealWindow{c, ok}
}

func (w stealWindow) finish() float64 {
	end, ok := readStealClock()
	if !w.ok || !ok || end.total <= w.start.total {
		return 0
	}
	return float64(end.steal-w.start.steal) / float64(end.total-w.start.total)
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// processCPU returns the CPU time (user plus system) the process has used.
// Time the hypervisor steals is not charged to it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
