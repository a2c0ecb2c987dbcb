// Package tracedev is the benchmark's own blockdev.Device + QueueProvider
// wrapper. Interposed between a consumer (fio, lsmdb) and its target it
// records, from outside the traced code, one span per device request —
// virtual submit/dispatch/completion times and the host time spent inside
// the downward Submit and the upward completion — plus request counts at
// the same boundary.
//
// The wrapper is transparent on the virtual clock: its queue is the same
// blockdev.NewQueue state machine the target would have handed out, with
// the same depth, and every dispatched request is forwarded as a child
// request to a target queue of equal depth, which therefore never holds a
// request back. No event is scheduled that the unwrapped stack would not
// schedule, so simulated time, latencies and every layer counter are
// identical with and without it (transparency_test.go checks this).
package tracedev

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Parent ids of spans that no recorded span caused.
const (
	ParentRoot = 0  // a user operation
	ParentBG   = -1 // background traffic: flush, compaction, group commit
)

// Span is one recorded interval. Times are virtual nanoseconds; HostNs is
// wall-clock time spent inside the traced calls (exclusive of traced calls
// nested within them).
type Span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"vstart_ns"`
	End    int64  `json:"vend_ns"`
	HostNs int64  `json:"host_ns"`
}

// Tracer collects spans and boundary counters for one traced run. Spans
// stay in memory until WriteJSON. Counting and recording happen only while
// Enabled, so set-up and warm-up traffic can pass through the wrapper
// unrecorded.
type Tracer struct {
	Enabled bool
	// MaxSpans bounds the spans kept (the first MaxSpans of the run);
	// counters and histograms always cover every request.
	MaxSpans int

	Spans []Span

	Requests, Bytes         int64
	Reads, Writes           int64
	Flushes, Trims          int64
	QueueWait, Service      stats.Hist // virtual: submit→dispatch, dispatch→completion
	SubmitHostNs, DoneHostN int64      // host ns inside downward Submit / upward completion

	nextID int64
	// nested accumulates the host time of traced calls that ran inside the
	// currently open one, so each call reports exclusive time.
	nested int64
}

// New returns a tracer keeping at most maxSpans spans.
func New(maxSpans int) *Tracer { return &Tracer{MaxSpans: maxSpans} }

// Begin opens a root span (a user operation issued by the benchmark's own
// load loop) at virtual time now and returns its index, or -1 when the
// span is not recorded.
func (t *Tracer) Begin(name string, now time.Duration) int {
	if !t.Enabled || len(t.Spans) >= t.MaxSpans {
		return -1
	}
	t.nextID++
	t.Spans = append(t.Spans, Span{Name: name, ID: t.nextID, Parent: ParentRoot, Start: int64(now)})
	return len(t.Spans) - 1
}

// End closes the span opened by Begin.
func (t *Tracer) End(idx int, now time.Duration, hostNs int64) {
	if idx < 0 {
		return
	}
	t.Spans[idx].End = int64(now)
	t.Spans[idx].HostNs = hostNs
}

// enter opens a host-timed section; exit closes it and returns the host
// time spent in it, excluding timed sections nested inside.
func (t *Tracer) enter() (saved int64, t0 time.Time) {
	saved, t.nested = t.nested, 0
	return saved, time.Now()
}

func (t *Tracer) exit(saved int64, t0 time.Time) int64 {
	total := time.Since(t0).Nanoseconds()
	self := total - t.nested
	t.nested = saved + total
	return self
}

// AttributeReads links device read spans to the root spans that caused
// them, after the run. A point lookup charges cpuPerOp, then issues its
// block reads strictly one after another, so its reads form a chain in
// virtual time: the first starts at root.Start+cpuPerOp and each next one
// starts the instant the previous completed, the last ending with the
// root. Device spans no chain claims are background traffic.
func (t *Tracer) AttributeReads(rootName, readName string, cpuPerOp time.Duration) {
	byStart := make(map[int64][]int)
	for i := range t.Spans {
		if s := &t.Spans[i]; s.Name == readName {
			byStart[s.Start] = append(byStart[s.Start], i)
		}
	}
	for i := range t.Spans {
		root := &t.Spans[i]
		if root.Name != rootName {
			continue
		}
		for at := root.Start + int64(cpuPerOp); at < root.End; {
			next := -1
			for _, c := range byStart[at] {
				if s := &t.Spans[c]; s.Parent == ParentRoot && s.End <= root.End {
					next = c
					break
				}
			}
			if next < 0 {
				break
			}
			t.Spans[next].Parent = root.ID
			at = t.Spans[next].End
		}
	}
	for i := range t.Spans {
		if s := &t.Spans[i]; s.Parent == ParentRoot && s.Name != rootName && isDeviceSpan(s.Name) {
			s.Parent = ParentBG
		}
	}
}

func isDeviceSpan(name string) bool { return strings.HasPrefix(name, "dev.") }

// SelfTimes returns, for every root span named rootName, its virtual
// duration minus the part its child spans cover.
func (t *Tracer) SelfTimes(rootName string) *stats.Hist {
	covered := make(map[int64]int64)
	for i := range t.Spans {
		if s := &t.Spans[i]; s.Parent > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var h stats.Hist
	for i := range t.Spans {
		if s := &t.Spans[i]; s.Name == rootName {
			h.Add(time.Duration(s.End - s.Start - covered[s.ID]))
		}
	}
	return &h
}

// WriteJSON writes the recorded spans as one JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i := range t.Spans {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if err := enc.Encode(&t.Spans[i]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// Device wraps a block device; its queues trace every request.
type Device struct {
	inner blockdev.Device
	tr    *Tracer
	names [4]string // span name per ReqOp
}

var (
	_ blockdev.Device        = (*Device)(nil)
	_ blockdev.QueueProvider = (*Device)(nil)
)

// Wrap interposes tr in front of inner. label names the boundary in span
// names ("dev.<label>.read", ...).
func Wrap(inner blockdev.Device, tr *Tracer, label string) *Device {
	d := &Device{inner: inner, tr: tr}
	for op := blockdev.ReqRead; op <= blockdev.ReqTrim; op++ {
		d.names[op] = fmt.Sprintf("dev.%s.%s", label, op)
	}
	return d
}

// SpanName returns the span name the wrapper gives requests of type op.
func (d *Device) SpanName(op blockdev.ReqOp) string { return d.names[op] }

// SectorSize implements blockdev.Device.
func (d *Device) SectorSize() int { return d.inner.SectorSize() }

// Capacity implements blockdev.Device.
func (d *Device) Capacity() int64 { return d.inner.Capacity() }

// The blocking calls pass straight through: the traced consumers drive
// queues, and the benchmark's own set-up and verification I/O is not part
// of any measured phase.

// Read implements blockdev.Device.
func (d *Device) Read(p *sim.Proc, off int64, buf []byte, n int64) error {
	return d.inner.Read(p, off, buf, n)
}

// Write implements blockdev.Device.
func (d *Device) Write(p *sim.Proc, off int64, buf []byte, n int64) error {
	return d.inner.Write(p, off, buf, n)
}

// Flush implements blockdev.Device.
func (d *Device) Flush(p *sim.Proc) error { return d.inner.Flush(p) }

// Trim implements blockdev.Device.
func (d *Device) Trim(p *sim.Proc, off, n int64) error { return d.inner.Trim(p, off, n) }

// OpenQueue implements blockdev.QueueProvider.
func (d *Device) OpenQueue(env *sim.Env, depth int) blockdev.Queue {
	q := &queue{d: d, env: env, inner: blockdev.OpenQueue(env, d.inner, depth)}
	return blockdev.NewQueue(env, d, depth, q.issue)
}

// queue forwards each dispatched request to the target as a pooled child
// request and reports the parent complete when the child completes.
type queue struct {
	d     *Device
	env   *sim.Env
	inner blockdev.Queue
	free  []*child
}

type child struct {
	q          *queue
	req        blockdev.Request
	one        [1]*blockdev.Request
	parent     *blockdev.Request
	done       func(*blockdev.Request)
	dispatched time.Duration
	span       int
	submitNs   int64
}

func (q *queue) issue(req *blockdev.Request, done func(*blockdev.Request)) {
	var c *child
	if n := len(q.free); n > 0 {
		c = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		c = &child{q: q}
		c.req.OnComplete = c.complete
		c.one[0] = &c.req
	}
	c.parent, c.done = req, done
	c.req.Op, c.req.Off, c.req.Buf, c.req.Length, c.req.Hint, c.req.Err = req.Op, req.Off, req.Buf, req.Length, req.Hint, nil
	c.dispatched = q.env.Now()
	c.span = -1
	tr := q.d.tr
	if tr.Enabled && len(tr.Spans) < tr.MaxSpans {
		tr.nextID++
		tr.Spans = append(tr.Spans, Span{Name: q.d.names[req.Op], ID: tr.nextID, Parent: ParentRoot, Start: int64(req.Submitted)})
		c.span = len(tr.Spans) - 1
	}
	saved, t0 := tr.enter()
	q.inner.Submit(c.one[:]...)
	c.submitNs = tr.exit(saved, t0)
}

func (c *child) complete(r *blockdev.Request) {
	q, tr := c.q, c.q.d.tr
	parent, done, span, submitNs := c.parent, c.done, c.span, c.submitNs
	parent.Err = r.Err
	op, length := parent.Op, parent.Length // the consumer may reuse parent once done runs
	wait, service := c.dispatched-parent.Submitted, q.env.Now()-c.dispatched
	c.parent, c.done, c.req.Buf = nil, nil, nil
	q.free = append(q.free, c)
	saved, t0 := tr.enter()
	done(parent)
	doneNs := tr.exit(saved, t0)
	if !tr.Enabled {
		return
	}
	tr.Requests++
	switch op {
	case blockdev.ReqRead:
		tr.Reads++
		tr.Bytes += length
	case blockdev.ReqWrite:
		tr.Writes++
		tr.Bytes += length
	case blockdev.ReqFlush:
		tr.Flushes++
	case blockdev.ReqTrim:
		tr.Trims++
	}
	tr.QueueWait.Add(wait)
	tr.Service.Add(service)
	tr.SubmitHostNs += submitNs
	tr.DoneHostN += doneNs
	if span >= 0 {
		s := &tr.Spans[span]
		s.End = int64(q.env.Now())
		s.HostNs = submitNs + doneNs
	}
}
