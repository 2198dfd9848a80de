package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Layer names a span: the public call of one module that the span times.
type Layer uint8

// The spans the traced run records, each around one call into a module.
const (
	LCompile    Layer = iota // core.Compile: MinC source to IR (lower)
	LInstrument              // core.InstrumentWith: the ClosureX pass pipeline
	LBuild                   // execmgr.New: the first process image
	LBootstrap               // the first Campaign.Step: seed corpus execution
	LCampaign                // the measured exec loop (root of every loop span)
	LMutate                  // Mutator.Havoc / Mutator.Splice
	LExecute                 // Mechanism.Execute
	LCall                    // VM.Call(target_main)
	LRestore                 // Harness.Restore
	LRespawn                 // crash respawn: vm.New + harness.New
	LMerge                   // Bitmap.Update
	LCount                   // the benchmark's own trace-cell count (not a program layer)
	numLayers
)

var layerNames = [numLayers]string{
	"lower.compile", "passes.instrument", "execmgr.build", "fuzz.bootstrap",
	"fuzz.campaign", "fuzz.mutate", "execmgr.execute", "vm.call",
	"harness.restore", "execmgr.respawn", "fuzz.merge", "bench.count_cells",
}

func (l Layer) String() string { return layerNames[l] }

// Span is one timed call. Run identifies the campaign the call belongs to
// (every span of one campaign shares it); Parent indexes the enclosing span
// in the same Tracer, or is -1.
type Span struct {
	Start, End int64 // ns since the tracer's epoch
	Parent     int32
	Run        int32
	Layer      Layer
}

// Tracer keeps spans in memory; one goroutine records into it, so spans are
// stored in start order and every parent precedes its children.
type Tracer struct {
	epoch time.Time
	Spans []Span
}

// NewTracer returns a tracer whose clock starts now. capHint preallocates
// span storage so appends do not copy inside the timed loop.
func NewTracer(epoch time.Time, capHint int) *Tracer {
	return &Tracer{epoch: epoch, Spans: make([]Span, 0, capHint)}
}

// Begin opens a span and returns its index.
func (t *Tracer) Begin(l Layer, run, parent int32) int32 {
	t.Spans = append(t.Spans, Span{Start: int64(time.Since(t.epoch)), Parent: parent, Run: run, Layer: l})
	return int32(len(t.Spans) - 1)
}

// End closes span id.
func (t *Tracer) End(id int32) { t.Spans[id].End = int64(time.Since(t.epoch)) }

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another;
// the covered part is the union of their intervals clipped to the parent.
// spans must be in start order with parents before children, as a Tracer
// records them.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	reach := make([]int64, len(spans)) // how far children already cover each span
	for i, s := range spans {
		self[i] = s.End - s.Start
		reach[i] = s.Start
		p := s.Parent
		if p < 0 {
			continue
		}
		lo := max(s.Start, reach[p])
		hi := min(s.End, spans[p].End)
		if hi > lo {
			self[p] -= hi - lo
			reach[p] = hi
		}
	}
	return self
}

// layerTotals sums duration and self time per layer.
type layerTotals struct {
	dur, self [numLayers]int64
}

// add sums spans[from:]; parents are indices into the whole of spans.
func (lt *layerTotals) add(spans []Span, from int) {
	self := SelfTimes(spans)
	for i := from; i < len(spans); i++ {
		s := spans[i]
		lt.dur[s.Layer] += s.End - s.Start
		lt.self[s.Layer] += self[i]
	}
}

// writeSpans writes every tracer's spans as CSV (tracer, index, run, layer,
// parent, start_ns, end_ns).
func writeSpans(path string, tracers []*Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer,span,run,layer,parent,start_ns,end_ns")
	for ti, t := range tracers {
		for i, s := range t.Spans {
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", ti, i, s.Run, s.Layer, s.Parent, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
