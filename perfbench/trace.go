package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call from the benchmark into a layer of the program.
// Times are nanoseconds since the tracer started. Parent is the index of
// the enclosing span, -1 for a root. Op identifies the benchmark operation
// (solve, request, loop round) the span belongs to; Tag carries a short
// outcome such as the Secmon-Cache header of a reply.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Tag    string `json:"tag,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its handle, -1 when tracing is off.
func (t *tracer) start(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id. A non-empty name renames it (a solve learns only on
// return whether the decomposition solver handled it); tag records an
// outcome.
func (t *tracer) end(id int, name, tag string) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.End = now
	if name != "" {
		sp.Name = name
	}
	sp.Tag = tag
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanCost measures what recording one span costs on this machine, in
// nanoseconds, by recording n spans on a scratch tracer.
func spanCost(n int) float64 {
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.start("calibrate", -1, 0), "", "")
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Overlapping children (concurrent calls under
// one parent) are merged first, so covered time is never counted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 && sp.Parent < len(spans) {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		if sp.End < sp.Start {
			continue // never closed
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			ch := spans[c]
			lo, hi := max(ch.Start, sp.Start), min(ch.End, sp.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// spanAgg sums the closed spans of one name (and optionally one tag).
type spanAgg struct {
	Count  int
	SelfNS int64
	WallNS int64
}

// selfMS is the mean self time per span in milliseconds, 0 with no spans.
func (a spanAgg) selfMS() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.SelfNS) / float64(a.Count) / 1e6
}

// wallMS is the mean duration per span in milliseconds, 0 with no spans.
func (a spanAgg) wallMS() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.WallNS) / float64(a.Count) / 1e6
}

// aggregate sums closed spans by name and by "name|tag".
func aggregate(spans []span) map[string]spanAgg {
	self := selfTimes(spans)
	out := make(map[string]spanAgg)
	for i, sp := range spans {
		if sp.End < sp.Start {
			continue
		}
		for _, key := range []string{sp.Name, sp.Name + "|" + sp.Tag} {
			a := out[key]
			a.Count++
			a.SelfNS += self[i]
			a.WallNS += sp.End - sp.Start
			out[key] = a
		}
	}
	return out
}

// writeTrace stores the spans as JSON under dir and returns the file path.
func writeTrace(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	body, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
