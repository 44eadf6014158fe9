package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented here). The spans of
// one round share (Lane, Round); Parent names the span of that round that
// caused this one.
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the pass began
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent,omitempty"`
	Workload string `json:"workload"`
	Lane     int    `json:"lane"`
	Round    int    `json:"round"`
}

// spanLog collects the spans of one goroutine; only that goroutine may
// add to it. A nil log (tracing off) drops everything, so the untraced
// pass pays one nil check per call site.
type spanLog struct {
	workload string
	lane     int
	epoch    time.Time
	spans    []span
}

func (l *spanLog) add(name string, round int, start, end time.Time) {
	if l == nil {
		return
	}
	parent := "round"
	if name == "round" || round == 0 {
		parent = ""
	}
	l.spans = append(l.spans, span{
		Name: name, StartNs: int64(start.Sub(l.epoch)), EndNs: int64(end.Sub(l.epoch)),
		Parent: parent, Workload: l.workload, Lane: l.lane, Round: round,
	})
}

// sibling returns an empty log with the same identity for a second
// goroutine working on the same lane.
func (l *spanLog) sibling() *spanLog {
	if l == nil {
		return nil
	}
	return &spanLog{workload: l.workload, lane: l.lane, epoch: l.epoch}
}

func (l *spanLog) merge(other *spanLog) {
	if l == nil || other == nil {
		return
	}
	l.spans = append(l.spans, other.spans...)
}

// writeSpans writes every log's spans as one JSON array.
func writeSpans(path string, logs []*spanLog) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	_, _ = w.WriteString("[\n")
	for _, l := range logs {
		if l == nil {
			continue
		}
		for i := range l.spans {
			if n > 0 {
				_, _ = w.WriteString(",")
			}
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	_, _ = w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
