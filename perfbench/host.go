package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// hostProbe records the host noise a run is exposed to: CPU steal over
// the run (from /proc/stat deltas), the scratch filesystem, and where the
// inputs are served from. A noisy comparison is identifiable from it.
type hostProbe struct {
	dir          string
	steal, total uint64
	ok           bool
}

func newHostProbe(dir string) (*hostProbe, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	h := &hostProbe{dir: dir}
	h.steal, h.total, h.ok = readCPUStat()
	return h, nil
}

// report prints the host line and returns the steal fraction since the
// probe started (0 where /proc/stat is unavailable).
func (h *hostProbe) report() float64 {
	steal, total, ok := readCPUStat()
	frac := 0.0
	if ok && h.ok && total > h.total {
		frac = float64(steal-h.steal) / float64(total-h.total)
	}
	fmt.Printf("host: steal_frac=%.4f scratch_fs=%s inputs=page-cache (generated and read once in setup) nproc=%d\n",
		frac, fsType(h.dir), runtime.NumCPU())
	return frac
}

// readCPUStat returns the steal and total jiffies of the aggregate "cpu"
// line of /proc/stat.
func readCPUStat() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return 0, 0, false
			}
			// user nice system idle iowait irq softirq steal guest
			// guest_nice: guest time is already counted in user and
			// nice, so it is left out of the total.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		return steal, total, true
	}
	return 0, 0, false
}

var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// procDelta is the process-level cost of a stretch of work.
type procDelta struct {
	cpu        float64 // user+system CPU seconds
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcPauseNs  uint64
}

var procMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// readProc reads the process counters. It stops the world briefly for
// the GC pause total, so it is called outside timed regions.
func readProc() procDelta {
	samples := make([]metrics.Sample, len(procMetrics))
	for i, name := range procMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procDelta{
		cpu:        cpuSeconds(),
		allocBytes: samples[0].Value.Uint64(),
		allocObjs:  samples[1].Value.Uint64(),
		gcCycles:   samples[2].Value.Uint64(),
		gcPauseNs:  ms.PauseTotalNs,
	}
}

func (a procDelta) sub(b procDelta) procDelta {
	return procDelta{
		cpu:        a.cpu - b.cpu,
		allocBytes: a.allocBytes - b.allocBytes,
		allocObjs:  a.allocObjs - b.allocObjs,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcPauseNs:  a.gcPauseNs - b.gcPauseNs,
	}
}

func (a procDelta) add(b procDelta) procDelta {
	return procDelta{
		cpu:        a.cpu + b.cpu,
		allocBytes: a.allocBytes + b.allocBytes,
		allocObjs:  a.allocObjs + b.allocObjs,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcPauseNs:  a.gcPauseNs + b.gcPauseNs,
	}
}
