package pblk

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/ocssd"
)

// The read path: IssueAsync (queue.go) hands every read, blocking or
// queued, to startReadReq; there is no process-side entry.

// startReadReq charges the host read overhead, then resolves the request
// and fans it out. The blockdev request and its completion callback ride
// in the pooled readReq, so issuing a read allocates nothing.
func (k *Pblk) startReadReq(req *blockdev.Request, done func(*blockdev.Request)) {
	r := k.readReqs.Get()
	r.off, r.buf, r.length = req.Off, req.Buf, req.Length
	r.breq, r.bdone = req, done
	k.env.Schedule(k.cfg.HostReadOverhead, r.resolveFn)
}

// mediaSector is one request sector to be fetched from flash.
type mediaSector struct {
	sector int    // index within the request
	ppa    uint64 // packed address, decoded into the vector command
}

// readReq is the whole context of one read request, from host-overhead
// scheduling through the media fan-out; the last chunk completion reports
// the first error seen. Pooled; resolveFn is bound once so neither issuing
// nor resolving a read allocates.
type readReq struct {
	k           *Pblk
	off         int64
	buf         []byte
	length      int64
	breq        *blockdev.Request
	bdone       func(*blockdev.Request)
	outstanding int
	firstErr    error
	resolveFn   func()
}

// finish reports the request's outcome, recycling the readReq first so the
// callback can immediately issue another read from a warm pool.
func (r *readReq) finish(err error) {
	k := r.k
	breq, bdone := r.breq, r.bdone
	r.buf, r.breq, r.bdone, r.firstErr = nil, nil, nil, nil
	k.readReqs.Put(r)
	breq.Err = err
	bdone(breq)
}

// readChunk is one vector read of a request: its addresses (all on one
// PU), the request sector index each address serves, and a completion
// callback bound once. Pooled with its slices.
type readChunk struct {
	req  *readReq
	vec  ocssd.Vector
	sect []int
	cbFn func(*ocssd.Completion)
}

// resolve serves each sector from the write buffer when its mapping is a
// cacheline — its unit's program has not completed (paper §4.2.1 keeps
// reads on the buffer "until all page pairs have been persisted"; pages
// here are unpaired, DESIGN.md §"Media model: unpaired pages") — as zeros
// when unmapped, and from media otherwise — gathered into vector reads
// submitted through the device's asynchronous interface, which
// parallelizes across PUs and channels. Media sectors are grouped per PU
// before chunking, so a MaxVectorLen chunk never straddles PUs it doesn't
// need to and a long read pays one command overhead per PU per 64 sectors
// instead of one per PU per chunk. Media read failures surface as
// ErrReadFailed: pblk has no read recovery (§4.2.3, ECC and threshold
// tuning live in the device).
func (r *readReq) resolve() {
	k := r.k
	if k.stopping {
		r.finish(ErrStopped)
		return
	}
	off, buf, length := r.off, r.buf, r.length
	ss := int64(k.geo.SectorSize)
	n := int(length / ss)

	media := 0
	for i := 0; i < n; i++ {
		lba := off/ss + int64(i)
		v := k.l2p[lba]
		switch {
		case isCache(v):
			k.Stats.CacheReads++
			e := k.rb.at(cachePos(v))
			if buf != nil {
				dst := buf[int64(i)*ss : int64(i+1)*ss]
				if e.data != nil {
					copy(dst, e.data)
				} else {
					clear(dst)
				}
			}
		case isMedia(v):
			a := v &^ l2pMediaBit
			rel := k.dev.RelativePU(k.fmtr.GlobalPUOf(a))
			if len(k.readPULists[rel]) == 0 {
				k.readPUOrder = append(k.readPUOrder, rel)
			}
			k.readPULists[rel] = append(k.readPULists[rel], mediaSector{sector: i, ppa: a})
			media++
		default:
			if buf != nil {
				clear(buf[int64(i)*ss : int64(i+1)*ss])
			}
		}
		k.Stats.UserReads++
	}
	if media == 0 {
		r.finish(nil)
		return
	}

	r.outstanding, r.firstErr = 0, nil
	for _, gpu := range k.readPUOrder {
		list := k.readPULists[gpu]
		for lo := 0; lo < len(list); lo += ocssd.MaxVectorLen {
			hi := lo + ocssd.MaxVectorLen
			if hi > len(list) {
				hi = len(list)
			}
			c := k.readChunks.Get()
			c.req = r
			for _, m := range list[lo:hi] {
				c.vec.Addrs = append(c.vec.Addrs, k.fmtr.Decode(m.ppa))
				c.sect = append(c.sect, m.sector)
			}
			c.vec.Op = ocssd.OpRead
			r.outstanding++
			k.dev.Submit(&c.vec, c.cbFn)
		}
		k.readPULists[gpu] = k.readPULists[gpu][:0]
	}
	k.readPUOrder = k.readPUOrder[:0]
}

// onComplete copies one chunk's data out and, on the request's last
// outstanding chunk, reports the first error. The completion and the
// chunk return to their pools — nothing of the fan-out survives the
// request.
func (c *readChunk) onComplete(comp *ocssd.Completion) {
	req := c.req
	k := req.k
	if comp.Relocate != 0 {
		k.noteReadRetryPressure(comp, c)
	}
	ss := int64(k.geo.SectorSize)
	for j, si := range c.sect {
		if comp.Errs[j] != nil {
			if req.firstErr == nil {
				req.firstErr = fmt.Errorf("%w: lba %d: %v", ErrReadFailed, req.off/ss+int64(si), comp.Errs[j])
			}
			continue
		}
		if req.buf != nil {
			dst := req.buf[int64(si)*ss : int64(si+1)*ss]
			if d := comp.Data[j]; d != nil {
				copy(dst, d)
			} else {
				clear(dst)
			}
		}
	}
	k.dev.Recycle(comp)
	c.req = nil
	c.vec.Addrs = c.vec.Addrs[:0]
	c.sect = c.sect[:0]
	k.readChunks.Put(c)
	req.outstanding--
	if req.outstanding == 0 {
		req.finish(req.firstErr)
	}
}
