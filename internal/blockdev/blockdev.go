// Package blockdev defines the block I/O contract shared by pblk (host
// FTL over an open-channel SSD), the baseline NVMe block SSD model, the
// null block device and the volume layer. Workload generators and the
// database stand-ins target it so every experiment can swap devices.
//
// A device is its Geometry plus one IssueFunc (see queue.go) — start this
// validated request, call done when it finishes — and both call styles of
// Device are derived from that function here, so they are one datapath:
// NewQueue builds the asynchronous queue pairs mirroring Linux blk-mq /
// NVMe submission/completion queues (batched submission, completion
// callbacks carrying per-request latency, flush barriers, per-queue
// in-flight accounting), and SyncAdapter.Do is the blocking
// Read/Write/Flush/Trim for simulation processes.
package blockdev

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Device errors.
var (
	ErrOutOfRange = errors.New("blockdev: I/O beyond device capacity")
	ErrAlignment  = errors.New("blockdev: I/O not sector aligned")
)

// Geometry is what a request's range is validated against.
type Geometry interface {
	// SectorSize returns the logical sector size in bytes.
	SectorSize() int
	// Capacity returns the usable device size in bytes.
	Capacity() int64
}

// Device is a block device driven from simulation context: its geometry,
// queue pairs for asynchronous callers, and one blocking call per
// operation for processes. Offsets and lengths are bytes and must be
// sector aligned.
//
// Data buffers are optional: a nil buf with a positive length performs a
// "synthetic" transfer that is charged full device time but carries
// unspecified payload (reads of synthetic data observe zeros). This keeps
// multi-gigabyte simulated workloads cheap in host memory while preserving
// timing and placement behaviour exactly.
type Device interface {
	Geometry
	QueueProvider
	// Read fills buf (or discards, when buf is nil) with length bytes at off.
	Read(p *sim.Proc, off int64, buf []byte, length int64) error
	// Write stores length bytes from buf (or an unspecified payload, when
	// buf is nil) at off.
	Write(p *sim.Proc, off int64, buf []byte, length int64) error
	// Flush blocks until all acknowledged writes are durable.
	Flush(p *sim.Proc) error
	// Trim discards the given range, unmapping it.
	Trim(p *sim.Proc, off, length int64) error
}

// CheckRange validates an I/O against a device's geometry.
func CheckRange(d Geometry, off int64, buf []byte, length int64) error {
	if buf != nil && int64(len(buf)) != length {
		return fmt.Errorf("blockdev: buffer is %dB for a %dB transfer", len(buf), length)
	}
	ss := int64(d.SectorSize())
	if off%ss != 0 || length%ss != 0 {
		return ErrAlignment
	}
	// length > Capacity-off, not off+length > Capacity: the sum can wrap.
	if length < 0 || off < 0 || length > d.Capacity()-off {
		return ErrOutOfRange
	}
	return nil
}
