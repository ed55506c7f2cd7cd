package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event is one structured journal record. Fields are flattened next to the
// reserved keys on the wire:
//
//	{"ts":"2026-08-06T12:00:00.000000001Z","ev":"train.epoch","epoch":3,...}
//
// Timestamps are wall-clock and therefore nondeterministic — journals are
// operator artifacts, never experiment artifacts, which is how the
// determinism guarantee survives (DESIGN.md §11).
type Event struct {
	TS     time.Time      `json:"ts"`
	Name   string         `json:"ev"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Journal streams events as JSON lines to a writer. Writes are serialized
// with a mutex and buffered; call Flush (or Close via the CLI helper) to
// drain the buffer. An optional byte budget (SetMaxBytes) caps growth: the
// event that would exceed it is replaced by a final "journal.truncated"
// sentinel and every later event is dropped, so a long-running server with
// -journal can never fill the disk unbounded.
type Journal struct {
	mu        sync.Mutex
	bw        *bufio.Writer
	err       error // first write error; later events are dropped
	now       func() time.Time
	maxBytes  int64 // 0 = unbounded
	written   int64
	truncated bool
}

// NewJournal wraps w in a buffered JSON-lines event sink with no byte
// budget.
func NewJournal(w io.Writer) *Journal {
	return &Journal{bw: bufio.NewWriter(w), now: time.Now}
}

// SetMaxBytes installs the growth budget (0 restores unbounded). The
// budget counts encoded bytes including the final sentinel's line.
func (j *Journal) SetMaxBytes(n int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.maxBytes = n
}

// Truncated reports whether the journal hit its byte budget and stopped.
func (j *Journal) Truncated() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.truncated
}

// wireEvent is the flattened on-disk form: reserved keys plus the event's
// own fields at top level. A map keeps encoding/json's key sorting, so
// lines are stable up to values.
type wireEvent map[string]any

// Write appends one event line. Errors are sticky and silent (telemetry
// must never take down the pipeline); Flush reports the first one. Once
// the byte budget is hit the journal is sticky-stopped: a final
// "journal.truncated" event records how much was written and later events
// are dropped.
func (j *Journal) Write(name string, fields map[string]any) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.truncated {
		return
	}
	ev := wireEvent{"ts": j.now().UTC().Format(time.RFC3339Nano), "ev": name}
	for k, v := range fields {
		if k != "ts" && k != "ev" {
			ev[k] = v
		}
	}
	line, err := json.Marshal(ev)
	if err != nil {
		j.err = err
		return
	}
	line = append(line, '\n')
	if j.maxBytes > 0 && j.written+int64(len(line)) > j.maxBytes {
		// The sentinel replaces the event that broke the budget; it may
		// itself nudge past maxBytes by one short line, which is the
		// price of always marking truncation on disk.
		j.truncated = true
		sent, err := json.Marshal(wireEvent{
			"ts": j.now().UTC().Format(time.RFC3339Nano), "ev": "journal.truncated",
			"written_bytes": j.written, "budget_bytes": j.maxBytes,
		})
		if err == nil {
			sent = append(sent, '\n')
			if _, werr := j.bw.Write(sent); werr != nil {
				j.err = werr
				return
			}
			j.written += int64(len(sent))
		}
		return
	}
	if _, werr := j.bw.Write(line); werr != nil {
		j.err = werr
		return
	}
	j.written += int64(len(line))
}

// Flush drains the buffer and returns the first write error, if any.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.bw.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// SetJournal attaches (or, with nil, detaches) the registry's event sink.
// It returns the previous journal so callers can restore it.
func (r *Registry) SetJournal(j *Journal) *Journal {
	if j == nil {
		return r.journal.Swap(nil)
	}
	return r.journal.Swap(j)
}

// Journal returns the attached event sink, or nil.
func (r *Registry) Journal() *Journal { return r.journal.Load() }

// Emit writes one event to the attached journal; a no-op while the
// registry is disabled or no journal is attached.
func (r *Registry) Emit(event string, fields map[string]any) {
	if !r.Enabled() {
		return
	}
	r.journal.Load().Write(event, fields)
}

// TruncatedTailError reports a journal whose final line was cut mid-write:
// it has no trailing newline and does not parse, as a crash or a kill
// before the buffer flush leaves it. ReadEvents drops the fragment and
// returns this error together with every complete event before it, so a
// caller that only wants those can warn and go on.
type TruncatedTailError struct {
	Line  int // 1-based line number of the dropped fragment
	Bytes int // length of the dropped fragment
}

func (e *TruncatedTailError) Error() string {
	return fmt.Sprintf("journal line %d truncated mid-write (%d bytes dropped)", e.Line, e.Bytes)
}

// LineError is a complete journal line that does not parse. ReadEvents
// stops there and returns it together with the events before it.
type LineError struct {
	Line int // 1-based line number
	Err  error
}

func (e *LineError) Error() string { return fmt.Sprintf("journal line %d: %v", e.Line, e.Err) }

func (e *LineError) Unwrap() error { return e.Err }

// ReadEvents parses a JSON-lines journal back into events — the round-trip
// half used by tests and analysis tooling. Unknown top-level keys become
// Fields entries and blank lines are skipped. It always returns the events
// of the valid line prefix; reading stops at the first line that does not
// parse, with a *LineError, or a *TruncatedTailError when that line is an
// unterminated final one.
func ReadEvents(rd io.Reader) ([]Event, error) {
	var out []Event
	br := bufio.NewReader(rd)
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return out, fmt.Errorf("read journal line %d: %w", lineNo, rerr)
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			var raw map[string]any
			if err := json.Unmarshal(trimmed, &raw); err != nil {
				if rerr == io.EOF {
					return out, &TruncatedTailError{Line: lineNo, Bytes: len(line)}
				}
				return out, &LineError{Line: lineNo, Err: err}
			}
			out = append(out, eventFromWire(raw))
		}
		if rerr == io.EOF {
			return out, nil
		}
	}
}

// eventFromWire splits a decoded line into the reserved keys and Fields.
func eventFromWire(raw map[string]any) Event {
	var ev Event
	if s, ok := raw["ts"].(string); ok {
		if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
			ev.TS = t
		}
	}
	ev.Name, _ = raw["ev"].(string)
	for k, v := range raw {
		if k == "ts" || k == "ev" {
			continue
		}
		if ev.Fields == nil {
			ev.Fields = map[string]any{}
		}
		ev.Fields[k] = v
	}
	return ev
}
