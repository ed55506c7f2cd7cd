// Command prismobs is the journal/SLO inspector: it tails and replays the
// JSON-lines journals every CLI in this repository emits (-journal) and
// polls a live prismserve's /metrics, turning raw telemetry into the
// questions an operator actually asks — which stage ate this request's
// p99 (blame), is the error budget burning (slo), where is wall-clock
// going right now (top), what happened (tail, grep).
//
// Usage:
//
//	prismobs blame -journal serve.jsonl [-objective 0.999]
//	prismobs slo   -journal serve.jsonl | -addr host:port
//	               [-objective 0.999] [-latency 250ms] [-check]
//	prismobs top   -addr host:port [-interval 2s] [-iterations 1]
//	prismobs tail  -journal run.jsonl [-follow] [-ev substr]
//	prismobs grep  -journal run.jsonl [-ev substr] [-where k=v ...]
//
// blame consumes the "trace" events prismserve journals per request
// (decode/queue/breaker/infer/encode stage durations) — and the
// client-side ones prismload emits — and prints exact per-stage
// p50/p95/p99 with each stage's share of total request time. slo grades
// availability and latency compliance against an objective, from either a
// journal or a live /metrics scrape; with -check it exits nonzero while
// the budget is burning. top diffs two /metrics snapshots and ranks
// histogram families by wall-clock added between them. tail renders
// events live, including grid.progress/pop.progress done/total + ETA
// lines from long runs.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"prism5g/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var code int
	switch os.Args[1] {
	case "blame":
		code = cmdBlame(os.Args[2:])
	case "slo":
		code = cmdSLO(os.Args[2:])
	case "top":
		code = cmdTop(os.Args[2:])
	case "tail":
		code = cmdTail(os.Args[2:])
	case "grep":
		code = cmdGrep(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "prismobs: unknown subcommand %q\n", os.Args[1])
		usage()
		code = 2
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: prismobs <blame|slo|top|tail|grep> [flags]
  blame -journal FILE                     per-stage p50/p95/p99 latency decomposition
  slo   -journal FILE | -addr HOST:PORT   availability + latency SLO burn rate
  top   -addr HOST:PORT                   histogram deltas between /metrics snapshots
  tail  -journal FILE [-follow]           render journal events (live with -follow)
  grep  -journal FILE [-ev X] [-where k=v] filter journal lines`)
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "prismobs: "+format+"\n", args...)
	return 1
}

// readJournal parses a whole journal file into events. A final line cut
// mid-write (a crashed or killed producer) is dropped with a warning on
// stderr, so the complete events before it are still inspected.
func readJournal(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := obs.ReadEvents(f)
	var tail *obs.TruncatedTailError
	if errors.As(err, &tail) {
		fmt.Fprintf(os.Stderr, "prismobs: warning: %s: %v\n", path, err)
		return events, nil
	}
	return events, err
}

// ms renders seconds as a compact millisecond figure.
func ms(s float64) string { return fmt.Sprintf("%.2fms", s*1e3) }

func cmdBlame(args []string) int {
	fs := flag.NewFlagSet("blame", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file with trace events")
	fs.Parse(args)
	if *journal == "" {
		return fail("blame: -journal is required")
	}
	events, err := readJournal(*journal)
	if err != nil {
		return fail("blame: %v", err)
	}
	traces := obs.ExtractTraces(events)
	if len(traces) == 0 {
		return fail("blame: no trace events in %s (run the producer with -journal)", *journal)
	}
	fmt.Printf("prismobs blame: %d traces from %s\n", len(traces), *journal)
	fmt.Printf("  %-12s %7s %10s %10s %10s %10s %7s\n",
		"stage", "count", "p50", "p95", "p99", "mean", "share")
	for _, st := range obs.Blame(traces) {
		fmt.Printf("  %-12s %7d %10s %10s %10s %10s %6.1f%%\n",
			st.Stage, st.Count, ms(st.P50S), ms(st.P95S), ms(st.P99S), ms(st.MeanS), st.Share*100)
	}
	return 0
}

// fetchSnapshot scrapes a live /metrics endpoint's JSON form.
func fetchSnapshot(addr string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

func cmdSLO(args []string) int {
	fs := flag.NewFlagSet("slo", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file with trace events")
	addr := fs.String("addr", "", "live prismserve address to scrape instead of a journal")
	objective := fs.Float64("objective", 0.999, "availability/latency objective in [0,1]")
	latency := fs.Duration("latency", 250*time.Millisecond, "latency SLO target")
	check := fs.Bool("check", false, "exit 1 when either burn rate exceeds 1.0")
	fs.Parse(args)

	var rep obs.SLOReport
	var source string
	switch {
	case *journal != "":
		events, err := readJournal(*journal)
		if err != nil {
			return fail("slo: %v", err)
		}
		traces := obs.ExtractTraces(events)
		if len(traces) == 0 {
			return fail("slo: no trace events in %s", *journal)
		}
		rep = obs.SLOFromTraces(traces, *objective, latency.Seconds())
		source = *journal
	case *addr != "":
		snap, err := fetchSnapshot(*addr)
		if err != nil {
			return fail("slo: %v", err)
		}
		rep = obs.SLOFromSnapshot(snap, *objective, latency.Seconds())
		source = *addr
	default:
		return fail("slo: one of -journal or -addr is required")
	}

	fmt.Printf("prismobs slo: %d requests from %s, objective %.3f%%, latency target %v\n",
		rep.Total, source, *objective*100, *latency)
	fmt.Printf("  availability %8.3f%%  (good %d/%d)  burn %.2fx\n",
		rep.Availability*100, rep.Good, rep.Total, rep.AvailabilityBurn)
	fmt.Printf("  latency      %8.3f%% <= %v        burn %.2fx\n",
		rep.LatencyOK*100, *latency, rep.LatencyBurn)
	burning := rep.AvailabilityBurn > 1 || rep.LatencyBurn > 1
	if burning {
		fmt.Println("  verdict: BURNING (error budget exhausting faster than it accrues)")
	} else {
		fmt.Println("  verdict: OK")
	}
	if *check && burning {
		return 1
	}
	return 0
}

func cmdTop(args []string) int {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "", "prismserve address to poll")
	interval := fs.Duration("interval", 2*time.Second, "delta window between snapshots")
	iterations := fs.Int("iterations", 1, "number of delta windows to report (0 = forever)")
	fs.Parse(args)
	if *addr == "" {
		return fail("top: -addr is required")
	}
	prev, err := fetchSnapshot(*addr)
	if err != nil {
		return fail("top: %v", err)
	}
	for i := 0; *iterations == 0 || i < *iterations; i++ {
		time.Sleep(*interval)
		cur, err := fetchSnapshot(*addr)
		if err != nil {
			return fail("top: %v", err)
		}
		deltas := obs.TopDelta(prev, cur)
		fmt.Printf("prismobs top: %s over %v\n", *addr, *interval)
		if len(deltas) == 0 {
			fmt.Println("  (no histogram movement)")
		}
		for _, d := range deltas {
			fmt.Printf("  %-26s +%6d obs  +%10s  mean %s\n", d.Name, d.DCount, ms(d.DSumS), ms(d.MeanS))
		}
		prev = cur
	}
	return 0
}

func cmdTail(args []string) int {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file to render")
	follow := fs.Bool("follow", false, "keep watching the file for appended events")
	evFilter := fs.String("ev", "", "only render events whose name contains this substring")
	fs.Parse(args)
	if *journal == "" {
		return fail("tail: -journal is required")
	}
	f, err := os.Open(*journal)
	if err != nil {
		return fail("tail: %v", err)
	}
	defer f.Close()

	r := bufio.NewReader(f)
	var partial []byte
	for {
		line, err := r.ReadBytes('\n')
		if err == nil {
			line = append(partial, line...)
			partial = nil
			printEventLine(line, *evFilter)
			continue
		}
		if err != io.EOF {
			return fail("tail: %v", err)
		}
		// EOF: an incomplete trailing line stays buffered until the
		// writer finishes it (journals append whole lines, so this only
		// happens mid-write).
		partial = append(partial, line...)
		if !*follow {
			if len(partial) > 0 {
				printEventLine(partial, *evFilter)
			}
			return 0
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// printEventLine parses one journal line and renders it; unparseable
// lines pass through raw so tail never hides evidence.
func printEventLine(line []byte, evFilter string) {
	trimmed := strings.TrimSpace(string(line))
	if trimmed == "" {
		return
	}
	evs, err := obs.ReadEvents(strings.NewReader(trimmed))
	if err != nil || len(evs) != 1 {
		fmt.Println(trimmed)
		return
	}
	if evFilter != "" && !strings.Contains(evs[0].Name, evFilter) {
		return
	}
	fmt.Println(obs.FormatEvent(evs[0]))
}

// whereFlags collects repeated -where k=v field filters.
type whereFlags []string

func (w *whereFlags) String() string     { return strings.Join(*w, ",") }
func (w *whereFlags) Set(s string) error { *w = append(*w, s); return nil }

func cmdGrep(args []string) int {
	fs := flag.NewFlagSet("grep", flag.ExitOnError)
	journal := fs.String("journal", "", "journal file to filter")
	evFilter := fs.String("ev", "", "only events whose name contains this substring")
	var where whereFlags
	fs.Var(&where, "where", "field filter k=v (repeatable, all must match)")
	fs.Parse(args)
	if *journal == "" {
		return fail("grep: -journal is required")
	}
	f, err := os.Open(*journal)
	if err != nil {
		return fail("grep: %v", err)
	}
	defer f.Close()

	filters := make(map[string]string, len(where))
	for _, w := range where {
		k, v, ok := strings.Cut(w, "=")
		if !ok {
			return fail("grep: -where wants k=v, got %q", w)
		}
		filters[k] = v
	}

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	matched := 0
	for sc.Scan() {
		line := sc.Bytes()
		var raw map[string]any
		if err := json.Unmarshal(line, &raw); err != nil {
			continue
		}
		name, _ := raw["ev"].(string)
		if *evFilter != "" && !strings.Contains(name, *evFilter) {
			continue
		}
		ok := true
		for k, v := range filters {
			got, present := raw[k]
			if !present || fmt.Sprintf("%v", got) != v {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		fmt.Println(string(line))
		matched++
	}
	if err := sc.Err(); err != nil {
		return fail("grep: %v", err)
	}
	if matched == 0 {
		return 1 // grep convention: no matches is a nonzero exit
	}
	return 0
}
