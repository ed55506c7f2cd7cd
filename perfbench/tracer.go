package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent links a span to the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory until writeFile. While off it records
// nothing, but timers still measure, so the untraced passes time their
// layers the same way with no span bookkeeping.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	on    bool
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) enabled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// timer is an open span; end closes it and returns its duration.
type timer struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	req    string
	start  time.Time
}

// start opens a span named name under parent (0 for a root).
func (t *tracer) start(name string, parent int64) timer {
	return t.startReq(name, parent, "")
}

// startReq is start for a span belonging to request req.
func (t *tracer) startReq(name string, parent int64, req string) timer {
	tm := timer{t: t, parent: parent, name: name, req: req}
	t.mu.Lock()
	if t.on {
		t.next++
		tm.id = t.next
	}
	t.mu.Unlock()
	tm.start = time.Now()
	return tm
}

func (tm timer) end() time.Duration {
	d := time.Since(tm.start)
	if tm.id != 0 {
		tm.t.mu.Lock()
		tm.t.spans = append(tm.t.spans, span{ID: tm.id, Parent: tm.parent, Req: tm.req, Name: tm.name,
			Start: tm.start.Sub(tm.t.t0).Nanoseconds(), Dur: d.Nanoseconds()})
		tm.t.mu.Unlock()
	}
	return d
}

// selfTime is a span's duration minus the part its direct children cover.
// Children of one parent in this benchmark never overlap (each layer is
// called from one goroutine), so their durations add.
func (t *tracer) selfTime(id int64, dur time.Duration) time.Duration {
	if id == 0 {
		return dur // an unrecorded span has no recorded children
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Parent == id {
			dur -= time.Duration(s.Dur)
		}
	}
	return dur
}

// writeFile dumps every span as JSON lines, sorted by start time.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// memSnap brackets a section for the runtime.* metrics and allocation
// counts. ReadMemStats stops the world briefly, so it is taken only around
// whole layers, never per request.
type memSnap struct{ ms runtime.MemStats }

func readMem() memSnap {
	var s memSnap
	runtime.ReadMemStats(&s.ms)
	return s
}

func (s memSnap) mallocsSince(before memSnap) float64 {
	return float64(s.ms.Mallocs - before.ms.Mallocs)
}

// recordRuntime sets the runtime.* metrics for the section between two
// snapshots.
func (b *bench) recordRuntime(before, after memSnap) {
	b.layer["runtime.gc_cycles"] = float64(after.ms.NumGC - before.ms.NumGC)
	b.layer["runtime.gc_pause_ms"] = float64(after.ms.PauseTotalNs-before.ms.PauseTotalNs) / 1e6
	b.layer["runtime.alloc_mib"] = float64(after.ms.TotalAlloc-before.ms.TotalAlloc) / (1 << 20)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// host is the block recorded with every result.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func hostInfo(procs int) host {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return host{NProc: procs, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpu,
		Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations for the medians above.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
