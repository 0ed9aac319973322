package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// benchLayer labels the benchmark's own spans: the op root and any waiting
// the benchmark itself imposes. Its self time is what no program layer covers.
const benchLayer = "bench"

// span is one timed interval. Times are offsets from the tracer's epoch.
// Parent is 0 for an op's root span.
type span struct {
	ID, Parent, Op int
	Name, Layer    string
	Start, End     time.Duration
}

// tracer records spans from the benchmark's own code around each call into a
// layer's public functions. Spans are kept per op until the op ends, when
// the op's self times are folded into per-layer totals; the spans of the
// first retain ops are kept in memory for the Chrome trace written at the
// end of the run.
type tracer struct {
	epoch  time.Time
	retain int

	mu       sync.Mutex
	nextID   int
	live     map[int]*opTrace
	kept     []span
	selfTime map[string]time.Duration
	opWall   time.Duration
	ops      int
	spans    int
}

func newTracer(retain int) *tracer {
	return &tracer{
		epoch:    time.Now(),
		retain:   retain,
		live:     map[int]*opTrace{},
		selfTime: map[string]time.Duration{},
	}
}

func (t *tracer) id() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// opTrace collects one op's spans. A nil *opTrace records nothing, so
// untraced runs pass nil through the same code paths.
type opTrace struct {
	t  *tracer
	op int
	// kept reports that the op's spans go to the Chrome trace; callers
	// skip fine-grained spans (single transport sends) for other ops.
	kept bool

	mu    sync.Mutex
	spans []span
	stack []int
}

// startOp opens op's root span at start.
func (t *tracer) startOp(op int, start time.Time) *opTrace {
	if t == nil {
		return nil
	}
	root := t.id()
	o := &opTrace{t: t, op: op, stack: []int{root},
		spans: []span{{ID: root, Op: op, Name: "op", Layer: benchLayer, Start: start.Sub(t.epoch)}}}
	t.mu.Lock()
	t.live[op] = o
	o.kept = t.ops+len(t.live) <= t.retain
	t.mu.Unlock()
	return o
}

// lookup returns the live op with the given id, for spans recorded on
// another goroutine (the plan server's handler).
func (t *tracer) lookup(op int) *opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live[op]
}

// begin opens a child of the innermost open span and returns its id.
func (o *opTrace) begin(layer, name string) int {
	if o == nil {
		return 0
	}
	id := o.t.id()
	now := time.Since(o.t.epoch)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.spans = append(o.spans, span{ID: id, Parent: o.stack[len(o.stack)-1], Op: o.op, Name: name, Layer: layer, Start: now})
	o.stack = append(o.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (o *opTrace) end(id int) {
	if o == nil {
		return
	}
	now := time.Since(o.t.epoch)
	o.mu.Lock()
	defer o.mu.Unlock()
	if top := o.stack[len(o.stack)-1]; top != id {
		panic(fmt.Sprintf("perfbench: span %d closed while %d is open", id, top))
	}
	o.stack = o.stack[:len(o.stack)-1]
	for i := len(o.spans) - 1; i >= 0; i-- {
		if o.spans[i].ID == id {
			o.spans[i].End = now
			return
		}
	}
}

// current is the id of the innermost open span.
func (o *opTrace) current() int {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stack[len(o.stack)-1]
}

// add records a finished span under parent (0 = the innermost open span).
// It is safe to call from any goroutine while the op is live.
func (o *opTrace) add(parent int, layer, name string, start, end time.Time) int {
	if o == nil {
		return 0
	}
	id := o.t.id()
	if parent == 0 {
		parent = o.current()
	}
	o.addAs(id, parent, layer, name, start, end)
	return id
}

// reserve allocates a span id for a span recorded later with addAs, so
// children can name it as their parent before its interval is known.
func (o *opTrace) reserve() int {
	if o == nil {
		return 0
	}
	return o.t.id()
}

// addAs records a finished span under a reserved id.
func (o *opTrace) addAs(id, parent int, layer, name string, start, end time.Time) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.spans = append(o.spans, span{ID: id, Parent: parent, Op: o.op, Name: name, Layer: layer,
		Start: start.Sub(o.t.epoch), End: end.Sub(o.t.epoch)})
}

// finish closes the root span at end and folds the op into the totals.
func (o *opTrace) finish(end time.Time) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.spans[0].End = end.Sub(o.t.epoch)
	spans := o.spans
	o.mu.Unlock()

	childTime := map[int]time.Duration{}
	for _, s := range spans[1:] {
		childTime[s.Parent] += s.End - s.Start
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		d := s.End - s.Start - childTime[s.ID]
		if d < 0 {
			d = 0
		}
		self[s.Layer] += d
	}
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, o.op)
	for layer, d := range self {
		t.selfTime[layer] += d
	}
	t.opWall += spans[0].End - spans[0].Start
	t.ops++
	t.spans += len(spans)
	if t.ops <= t.retain {
		t.kept = append(t.kept, spans...)
	}
}

// traceSummary is the per-layer breakdown of the traced ops.
type traceSummary struct {
	Ops         int
	OpWall      time.Duration
	SelfTime    map[string]time.Duration
	Coverage    float64 // share of op wall time inside some program layer
	SpansPerOp  float64
	KeptSpans   []span
	SelfPerOpMS map[string]float64
}

func (t *tracer) summary() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := traceSummary{Ops: t.ops, OpWall: t.opWall, SelfTime: map[string]time.Duration{},
		KeptSpans: append([]span(nil), t.kept...), SelfPerOpMS: map[string]float64{}}
	for layer, d := range t.selfTime {
		s.SelfTime[layer] = d
		if t.ops > 0 {
			s.SelfPerOpMS[layer] = ms(d) / float64(t.ops)
		}
	}
	if t.opWall > 0 {
		s.Coverage = 1 - float64(t.selfTime[benchLayer])/float64(t.opWall)
	}
	if t.ops > 0 {
		s.SpansPerOp = float64(t.spans) / float64(t.ops)
	}
	return s
}

// selfFrac is a layer's share of the traced ops' wall time.
func (s traceSummary) selfFrac(layer string) float64 {
	if s.OpWall == 0 {
		return 0
	}
	return float64(s.SelfTime[layer]) / float64(s.OpWall)
}

// chromeEvent is one entry of the Chrome trace-event format, the format the
// runtime's timeline exporter writes.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes the kept spans as Chrome trace JSON: one complete
// ("X") event per span, one track per op.
func writeChrome(path string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Phase: "X",
			TS: s.Start.Microseconds(), Dur: (s.End - s.Start).Microseconds(),
			PID: 1, TID: s.Op,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("marshal chrome trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// checkNesting reports the first span that lies outside its parent or
// names a parent that does not exist.
func checkNesting(spans []span) error {
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %s has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Op != s.Op {
			return fmt.Errorf("span %d %s is in op %d but its parent is in op %d", s.ID, s.Name, s.Op, p.Op)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%v,%v] escapes parent %d %s [%v,%v]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}
