package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// selfCPU returns this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// clockTicks is the Linux USER_HZ that /proc/<pid>/stat reports CPU
// times in.
const clockTicks = 100

// procCPU returns a process's user+system CPU time in seconds from
// /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume
	// after its closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB returns a process's peak resident set size (VmHWM) in MB;
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// cpuModel names the processor from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the checked-out commit, or "none" outside a git
// repository.
func gitCommit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file under root (build
// outputs excluded), so a result names the code it measured even where
// no commit is available.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\n", rel)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stolenSeconds returns the wall time the hypervisor has taken from this
// machine so far: the steal column of /proc/stat (CPU time a runnable
// vCPU waited for the host) divided by the number of CPUs. The
// benchmark's wall times subtract its growth over each timed interval,
// so a neighbour's load on a shared host does not read as a slower
// program.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	steal, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return steal / clockTicks / float64(runtime.NumCPU())
}

// stopwatch measures wall time minus the time stolen by the hypervisor.
type stopwatch struct {
	start  time.Time
	stolen float64
}

func startStopwatch() stopwatch { return stopwatch{start: time.Now(), stolen: stolenSeconds()} }

// seconds is the elapsed wall time less the time stolen meanwhile.
func (s stopwatch) seconds() float64 {
	return s.wall() - (stolenSeconds() - s.stolen)
}

// wall is the elapsed wall time, steal included.
func (s stopwatch) wall() float64 { return time.Since(s.start).Seconds() }

// kernelNominal is the reference kernel's time on the reference box
// (2-vCPU Xeon VM, uncontended). Time metrics are scaled to it.
const kernelNominal = 0.060

// hostSpeed tracks how fast the host is running the benchmark right now,
// by timing a fixed reference kernel between measurements. On a shared
// host, neighbours' load moves the speed of identical work by 20% and
// more over tens of minutes (CPU time rises, not just steal); the
// kernel slows with it, so scaling the run's time metrics by
// kernelNominal over the kernel's median time cancels most of that drift
// while leaving any change in macroflow's own speed in place: the kernel
// is this package's code, not the program's.
type hostSpeed struct{ samples []float64 }

// sample times the kernel n times while nothing else of the benchmark
// runs.
func (h *hostSpeed) sample(n int) {
	for i := 0; i < n; i++ {
		sw := startStopwatch()
		var wg sync.WaitGroup
		for g := 0; g < runtime.NumCPU(); g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				kernelSink.Add(int64(referenceKernel(g)))
			}(g)
		}
		wg.Wait()
		h.samples = append(h.samples, sw.seconds())
	}
}

// scale is the factor a time measured during the run is multiplied by.
func (h *hostSpeed) scale() float64 { return kernelNominal / median(h.samples) }

// kernelSink keeps the kernel's result alive.
var kernelSink atomic.Int64

// referenceKernel is fixed work of the kind the flow does — hashing into
// a map, growing and sorting a slice — on one goroutine.
func referenceKernel(seed int) int {
	total := 0
	for r := 0; r < 4; r++ {
		m := make(map[uint64]int, 1<<15)
		xs := make([]float64, 0, 1<<16)
		x := uint64(seed*1000+r)*2654435761 + 1
		for i := 0; i < 1<<16; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			m[x%100000] += i
			xs = append(xs, float64(x%1000003))
		}
		sort.Float64s(xs)
		total += len(m) + int(xs[len(xs)/2])
	}
	return total
}
