package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzReadEvents: ReadEvents never panics, fails only with its typed
// errors, and always returns exactly the events of the valid line prefix.
func FuzzReadEvents(f *testing.F) {
	journal := traceJournal(3)
	f.Add(journal)
	for _, cut := range []int{1, len(journal) / 3, len(journal)/2 + 5, len(journal) - 1} {
		f.Add(journal[:cut])
	}
	f.Add(append(append([]byte{}, journal...), "not json\n"...))
	f.Add([]byte("\n\n{\"ev\":\"a\"}\r\n[1,2]\n"))
	f.Add([]byte(`{"ev":"journal.truncated","budget_bytes":600}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadEvents(bytes.NewReader(data))
		var tail *TruncatedTailError
		var bad *LineError
		if err != nil && !errors.As(err, &tail) && !errors.As(err, &bad) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
		// The reference prefix: lines in order, blank ones skipped, up to
		// the first that does not parse.
		var names []string
		lineNo, stopped := 0, false
		for rest := data; len(rest) > 0; {
			lineNo++
			line := rest
			if i := bytes.IndexByte(rest, '\n'); i >= 0 {
				line, rest = rest[:i+1], rest[i+1:]
			} else {
				rest = nil
			}
			trimmed := bytes.TrimSpace(line)
			if len(trimmed) == 0 {
				continue
			}
			var raw map[string]any
			if json.Unmarshal(trimmed, &raw) != nil {
				terminated := line[len(line)-1] == '\n'
				if terminated && (bad == nil || bad.Line != lineNo) {
					t.Fatalf("line %d is malformed; err = %v", lineNo, err)
				}
				if !terminated && (tail == nil || tail.Line != lineNo || tail.Bytes != len(line)) {
					t.Fatalf("line %d is a truncated tail of %d bytes; err = %v", lineNo, len(line), err)
				}
				stopped = true
				break
			}
			name, _ := raw["ev"].(string)
			names = append(names, name)
		}
		if !stopped && err != nil {
			t.Fatalf("every line parses, yet err = %v", err)
		}
		if len(evs) != len(names) {
			t.Fatalf("%d events, valid prefix has %d lines (err %v)", len(evs), len(names), err)
		}
		for i, ev := range evs {
			if ev.Name != names[i] {
				t.Fatalf("event %d named %q, line says %q", i, ev.Name, names[i])
			}
		}
	})
}
