package lightnvm

import (
	"errors"

	"repro/internal/blockdev"
	"repro/internal/ocssd"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// Errors of the raw target's write-side contract.
var (
	ErrRawPartialUnit = errors.New("lightnvm: raw write does not cover whole write units")
	ErrRawTrim        = errors.New("lightnvm: raw target cannot trim; a block is erased when its first page is rewritten")
)

// Raw is the FTL-less target: the PU range of a MediaView as a
// blockdev.Device behind a static LBA → PPA map, for callers that place
// data themselves — the paper's fio with the PPA I/O engine (§5.1 per-PU
// characterization, §5.5 PU-isolated streams). Write units (one page on
// every plane of a PU) are striped round-robin over the range: unit u
// lives on PU u mod n at page u div n, pages counting through the blocks.
// The media's rules are the caller's to keep: a write covers whole units,
// reaches the pages of a block in order, and rewriting a block's first
// page erases the block. Nothing is buffered, so Flush has nothing to do,
// and there is no map to Trim. The target takes no configuration and runs
// nothing in the background.
type Raw struct {
	*blockdev.SyncAdapter // OpenQueue and the blocking Read/Write/Flush/Trim, over issue
	view                  *MediaView
	geo                   ppa.Geometry
	fmtr                  ppa.Format
	unit                  int64 // sectors per write unit
	lanes                 []rawLane
}

var _ blockdev.Device = (*Raw)(nil)

// NewRaw mounts a raw target on a reserved view.
func NewRaw(view *MediaView) *Raw {
	g := view.Geometry()
	r := &Raw{view: view, geo: g, fmtr: view.Format(), unit: int64(g.PlanesPerPU * g.SectorsPerPage), lanes: make([]rawLane, view.PUs())}
	r.SyncAdapter = blockdev.NewSyncAdapter(view.Env(), r, r.issue)
	return r
}

// Stop releases the target's view. All I/O is the caller's: drain your
// queues first.
func (r *Raw) Stop() { r.view.Release() }

// SectorSize implements blockdev.Device.
func (r *Raw) SectorSize() int { return r.geo.SectorSize }

// Capacity implements blockdev.Device: every sector of the range.
func (r *Raw) Capacity() int64 { return r.BlockBytes(r.geo.BlocksPerPlane) }

// BlockBytes returns the size of the LBA region that covers the first n
// blocks (all planes) of every PU in the range — how jobs size a region.
func (r *Raw) BlockBytes(n int) int64 {
	return int64(n) * int64(len(r.lanes)) * int64(r.geo.PlanesPerPU) * r.geo.BlockBytes()
}

// unitAddr returns the PU index and the plane-0, sector-0 target address
// of write unit u.
func (r *Raw) unitAddr(u int64) (pu int, a ppa.Addr) {
	n := int64(len(r.lanes))
	pu, row := int(u%n), int(u/n)
	a.Ch, a.PU = r.fmtr.PUAddr(pu)
	a.Block, a.Page = row/r.geo.PagesPerBlock, row%r.geo.PagesPerBlock
	return pu, a
}

// addr is the static map: the physical address of logical sector lba.
func (r *Raw) addr(lba int64) ppa.Addr {
	_, a := r.unitAddr(lba / r.unit)
	s := int(lba % r.unit)
	a.Plane, a.Sector = s/r.geo.SectorsPerPage, s%r.geo.SectorsPerPage
	return a
}

// rawIO is one request split into device commands: it completes with the
// first error when the last command has, the issuing call holding one
// count itself so that commands finishing early cannot complete it.
type rawIO struct {
	req  *blockdev.Request
	done func(*blockdev.Request)
	left int
}

func (io *rawIO) finish(err error) {
	if io.req.Err == nil {
		io.req.Err = err
	}
	if io.left--; io.left == 0 {
		io.done(io.req)
	}
}

// issue is the target's blockdev.IssueFunc, its whole datapath. A flush
// completes at once: a write that has completed is on the media.
func (r *Raw) issue(req *blockdev.Request, done func(*blockdev.Request)) {
	ss := int64(r.geo.SectorSize)
	lba, n := req.Off/ss, req.Length/ss
	io := &rawIO{req: req, done: done, left: 1}
	switch req.Op {
	case blockdev.ReqRead:
		r.read(io, lba, n)
	case blockdev.ReqWrite:
		if lba%r.unit != 0 || n%r.unit != 0 {
			req.Err = ErrRawPartialUnit
			break
		}
		for u := lba / r.unit; u < (lba+n)/r.unit; u++ {
			r.writeUnit(io, u, lba)
		}
	case blockdev.ReqTrim:
		req.Err = ErrRawTrim
	}
	io.finish(nil)
}

// read submits one vector per MaxVectorLen sectors, all at once.
func (r *Raw) read(io *rawIO, lba, n int64) {
	ss := int64(r.geo.SectorSize)
	for at := int64(0); at < n; at += ocssd.MaxVectorLen {
		vec := &ocssd.Vector{Op: ocssd.OpRead, Addrs: make([]ppa.Addr, min(n-at, ocssd.MaxVectorLen))}
		for i := range vec.Addrs {
			vec.Addrs[i] = r.addr(lba + at + int64(i))
		}
		var buf []byte
		if io.req.Buf != nil {
			buf = io.req.Buf[at*ss:]
		}
		io.left++
		r.view.Submit(vec, func(c *ocssd.Completion) {
			for i := 0; buf != nil && i < len(vec.Addrs); i++ {
				dst := buf[int64(i)*ss : int64(i+1)*ss]
				clear(dst[copy(dst, c.Data[i]):]) // synthetic pages carry no bytes
			}
			r.complete(io, c)
		})
	}
}

// writeUnit queues the program of write unit u of a request starting at
// sector lba, behind the erase of its block when it is the block's first.
func (r *Raw) writeUnit(io *rawIO, u, lba int64) {
	pu, first := r.unitAddr(u)
	if first.Page == 0 {
		erase := &ocssd.Vector{Op: ocssd.OpErase, Addrs: make([]ppa.Addr, r.geo.PlanesPerPU)}
		for pl := range erase.Addrs {
			erase.Addrs[pl] = first
			erase.Addrs[pl].Plane = pl
		}
		r.enqueue(pu, erase, io)
	}
	prog := &ocssd.Vector{Op: ocssd.OpWrite, Addrs: make([]ppa.Addr, r.unit)}
	if io.req.Buf != nil {
		prog.Data = make([][]byte, r.unit)
	}
	ss := int64(r.geo.SectorSize)
	for i := range prog.Addrs {
		s := u*r.unit + int64(i)
		prog.Addrs[i] = r.addr(s)
		if prog.Data != nil {
			prog.Data[i] = io.req.Buf[(s-lba)*ss : (s-lba+1)*ss]
		}
	}
	r.enqueue(pu, prog, io)
}

func (r *Raw) complete(io *rawIO, c *ocssd.Completion) {
	err := c.FirstErr()
	r.view.Recycle(c)
	io.finish(err)
}

// rawLane hands one PU its erases and programs one at a time, in arrival
// order. The device's PU queue alone does not keep that order: with
// Timing.SuspendSlice set, a program or erase yields to whatever is queued
// on its PU and resumes behind it, so a program queued at the device would
// overtake the one before it — out of page order, or into a block whose
// erase is still suspended. Reads carry no order and bypass the lane.
type rawLane struct {
	queue sim.FIFO[rawCmd]
	busy  bool
}

type rawCmd struct {
	vec *ocssd.Vector
	io  *rawIO
}

func (r *Raw) enqueue(pu int, vec *ocssd.Vector, io *rawIO) {
	io.left++
	ln := &r.lanes[pu]
	ln.queue.Push(rawCmd{vec, io})
	if !ln.busy {
		ln.busy = true
		r.next(ln)
	}
}

func (r *Raw) next(ln *rawLane) {
	if ln.queue.Len() == 0 {
		ln.busy = false
		return
	}
	cmd := ln.queue.Pop()
	r.view.Submit(cmd.vec, func(c *ocssd.Completion) {
		r.next(ln)
		r.complete(cmd.io, c)
	})
}
