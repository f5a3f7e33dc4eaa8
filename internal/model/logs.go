package model

import (
	"slices"
	"strings"
)

// logFacts is the structured information the engine extracts from verifier
// logs: which assertion failed, which signals it samples, and at what cycle.
type logFacts struct {
	AssertName string   // without the module prefix
	Signals    []string // signals named in the "sampled values" line
	HasFailure bool
}

// parseLogs extracts facts from the log text produced by sva.FormatLog.
// The format is stable; unknown text degrades gracefully to an empty fact
// set (the engine then relies on structural features only).
func parseLogs(logs string) logFacts {
	var f logFacts
	for _, line := range strings.Split(logs, "\n") {
		t := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(t, "failed assertion "):
			f.HasFailure = true
			name := strings.TrimPrefix(t, "failed assertion ")
			if i := strings.IndexAny(name, " \t"); i >= 0 {
				name = name[:i]
			}
			if i := strings.LastIndexByte(name, '.'); i >= 0 {
				name = name[i+1:]
			}
			if f.AssertName == "" {
				f.AssertName = name
			}
		case strings.HasPrefix(t, "sampled values at cycle"):
			rest := t
			if i := strings.IndexByte(rest, ':'); i >= 0 {
				rest = rest[i+1:]
			}
			for _, kv := range strings.Fields(rest) {
				if i := strings.IndexByte(kv, '='); i > 0 {
					sig := kv[:i]
					if !slices.Contains(f.Signals, sig) {
						f.Signals = append(f.Signals, sig)
					}
				}
			}
		}
	}
	return f
}
