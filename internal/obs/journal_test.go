package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestJournalMaxBytesStickyStop drives the byte budget: once the next
// event would exceed it, a single journal.truncated sentinel is written,
// every later event is dropped, and the stop is sticky.
func TestJournalMaxBytesStickyStop(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.SetMaxBytes(600)
	for i := 0; i < 100; i++ {
		j.Write("fill", map[string]any{"i": i, "pad": strings.Repeat("x", 40)})
	}
	if !j.Truncated() {
		t.Fatal("journal must report truncation")
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("truncated journal must stay parseable: %v", err)
	}
	if len(evs) == 0 || len(evs) == 100 {
		t.Fatalf("got %d events, want some but not all", len(evs))
	}
	last := evs[len(evs)-1]
	if last.Name != "journal.truncated" {
		t.Fatalf("last event = %q, want journal.truncated", last.Name)
	}
	if last.Fields["budget_bytes"].(float64) != 600 {
		t.Fatalf("sentinel fields = %v", last.Fields)
	}
	for _, ev := range evs[:len(evs)-1] {
		if ev.Name != "fill" {
			t.Fatalf("unexpected event %q before sentinel", ev.Name)
		}
	}
	// The sentinel may exceed the budget by its own line, never more.
	if int64(buf.Len()) > 600+200 {
		t.Fatalf("journal is %d bytes, far past its 600-byte budget", buf.Len())
	}
}

// TestJournalParallelWriteIntegrity hammers Write from many goroutines and
// asserts line-level integrity: exactly one JSON object per line, no
// interleaving, no lost events.
func TestJournalParallelWriteIntegrity(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j.Write("par", map[string]any{"g": g, "i": i, "s": fmt.Sprintf("ue-%04d", i)})
			}
		}(g)
	}
	wg.Wait()
	if err := j.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != goroutines*perG {
		t.Fatalf("got %d lines, want %d", len(lines), goroutines*perG)
	}
	perGoroutine := map[int]int{}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("line %q not standalone JSON: %v", line, err)
		}
		if m["ev"] != "par" {
			t.Fatalf("event name corrupted: %v", m["ev"])
		}
		perGoroutine[int(m["g"].(float64))]++
	}
	for g := 0; g < goroutines; g++ {
		if perGoroutine[g] != perG {
			t.Fatalf("goroutine %d has %d events, want %d", g, perGoroutine[g], perG)
		}
	}
}

// TestJournalReservedKeys: a field named ts or ev must not clobber the
// envelope.
func TestJournalReservedKeys(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Write("real", map[string]any{"ev": "fake", "ts": "fake", "k": 1})
	if err := j.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	evs, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil || len(evs) != 1 {
		t.Fatalf("read: %v %v", evs, err)
	}
	if evs[0].Name != "real" || evs[0].TS.IsZero() {
		t.Fatalf("envelope clobbered: %+v", evs[0])
	}
	if evs[0].Fields["k"].(float64) != 1 {
		t.Fatalf("fields lost: %v", evs[0].Fields)
	}
}

// traceJournal writes n request traces with the field set prismserve
// journals per request, at a fixed clock, and returns the journal bytes.
func traceJournal(n int) []byte {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	t0 := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	j.now = func() time.Time { return t0 }
	for i := 0; i < n; i++ {
		j.Write("trace", map[string]any{
			"trace": fmt.Sprintf("%016x", i+1), "session": fmt.Sprintf("ue-%d", i%3),
			"outcome": "ok", "reason": "", "total_s": 0.002 + 1e-4*float64(i),
			"decode_s": 1e-4, "queue_s": 5e-4, "breaker_s": 0, "infer_s": 1e-3, "encode_s": 1e-4,
		})
	}
	j.Flush()
	return buf.Bytes()
}

// TestReadEventsDamagedJournals: ReadEvents returns every event of the
// valid line prefix, drops an unterminated unparseable final line with a
// *TruncatedTailError, and stops at a malformed complete line with a
// *LineError carrying its number.
func TestReadEventsDamagedJournals(t *testing.T) {
	good := string(traceJournal(3))
	first := good[:strings.IndexByte(good, '\n')+1]
	sentinel := `{"budget_bytes":600,"ev":"journal.truncated","ts":"2026-08-06T12:00:00Z","written_bytes":590}` + "\n"
	cases := []struct {
		name      string
		in        string
		events    int
		truncLine int // line of the *TruncatedTailError, 0 for none
		badLine   int // line of the *LineError, 0 for none
		last      string
	}{
		{name: "truncated tail", in: good + first[:len(first)/2], events: 3, truncLine: 4},
		{name: "empty file", in: "", events: 0},
		{name: "blank lines", in: "\n" + good + "\n  \n", events: 3},
		{name: "interior garbage", in: first + "not json\n" + good, events: 1, badLine: 2},
		{name: "malformed terminated last line", in: good + "{\"ev\":\n", events: 3, badLine: 4},
		{name: "unterminated complete last line", in: strings.TrimSuffix(good, "\n"), events: 3},
		{name: "journal.truncated sentinel last", in: good + sentinel, events: 4, last: "journal.truncated"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			evs, err := ReadEvents(strings.NewReader(c.in))
			if len(evs) != c.events {
				t.Fatalf("%d events, want %d (err %v)", len(evs), c.events, err)
			}
			var tail *TruncatedTailError
			var bad *LineError
			switch {
			case c.truncLine > 0:
				if !errors.As(err, &tail) || tail.Line != c.truncLine {
					t.Fatalf("err = %v, want truncated tail at line %d", err, c.truncLine)
				}
			case c.badLine > 0:
				if !errors.As(err, &bad) || bad.Line != c.badLine {
					t.Fatalf("err = %v, want malformed line %d", err, c.badLine)
				}
			case err != nil:
				t.Fatalf("err = %v, want nil", err)
			}
			for _, ev := range evs[:min(len(evs), 3)] {
				if ev.Name != "trace" || ev.Fields["outcome"] != "ok" {
					t.Fatalf("event mangled: %+v", ev)
				}
			}
			if c.last != "" && evs[len(evs)-1].Name != c.last {
				t.Fatalf("last event %q, want %q", evs[len(evs)-1].Name, c.last)
			}
		})
	}
}
