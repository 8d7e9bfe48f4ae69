package main

import "time"

// span is one timed call into a layer boundary, recorded from the
// benchmark's side of the call. Parent is the enclosing span's ID (0 for
// the run's root); every span of one run carries the same Run ID.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Run     string  `json:"run"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, which is how untraced episodes run.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
}

// newTracer starts a run's tracer; span times are ms since epoch.
func newTracer(run string, epoch time.Time) *tracer { return &tracer{run: run, epoch: epoch} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.epoch)) / 1e6 }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		StartMS: t.ms(start), EndMS: t.ms(end)})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, start time.Time) int {
	return t.add(name, parent, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t != nil && id > 0 {
		t.spans[id-1].EndMS = t.ms(end)
	}
}
