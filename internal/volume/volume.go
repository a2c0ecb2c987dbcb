package volume

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// Layout describes how a volume composes fleet members: Sets is the list
// of stripe columns, each holding the member ids of that column's mirror
// replicas. Chunk is the striping unit in bytes (ignored with one set).
type Layout struct {
	Chunk int64
	Sets  [][]int
}

// Stripe is RAID-0: one single-replica column per device.
func Stripe(chunk int64, devs ...int) Layout {
	sets := make([][]int, len(devs))
	for i, d := range devs {
		sets[i] = []int{d}
	}
	return Layout{Chunk: chunk, Sets: sets}
}

// Mirror is RAID-1: one column replicated on every given device.
func Mirror(devs ...int) Layout {
	return Layout{Sets: [][]int{devs}}
}

// StripeOfMirrors is RAID-10: striping across columns that are each a
// mirror set.
func StripeOfMirrors(chunk int64, sets ...[]int) Layout {
	return Layout{Chunk: chunk, Sets: sets}
}

// retryLimit is the number of attempts per member for transiently failing
// sub-requests. A write or trim that still fails after retryLimit attempts
// ejects the member from the array.
const retryLimit = 3

// Options tune a volume's redundancy behaviour.
type Options struct {
	// Rebuild configures the online rebuild engine for this volume.
	Rebuild RebuildConfig
}

// Stats counts volume-level datapath events.
type Stats struct {
	Reads, Writes int64 // parent requests accepted
	DegradedReads int64 // chunk reads served while their set was degraded
	RetriedReads  int64 // chunk read attempts re-routed after a failure
	RetriedWrites int64 // replica write and trim attempts retried after a failure
	ParkedWrites  int64 // writes and trims held behind the rebuild copy window
	Ejections     int64 // members ejected for persistent write or trim failure
	MemberDeaths  int64
	RebuildsDone  int64
}

// mirrorSet is one stripe column: its replicas and, while a spare is
// being filled, the rebuild state.
type mirrorSet struct {
	idx  int
	v    *Volume
	reps []*Member
	rb   *rebuild
	next int // read cursor: pickRead's next position in reps
}

// healthy returns the replicas able to serve reads right now.
func (s *mirrorSet) healthy() []*Member {
	var live []*Member
	for _, m := range s.reps {
		if m.state == StateHealthy {
			live = append(live, m)
		}
	}
	return live
}

// pickRead returns the replica a chunk read goes to: the set's healthy
// replicas in turn, by a cursor of the set's own — one shared by the columns
// advances once per chunk and phase-locks with a request of one chunk per
// column. It returns nil when no replica is healthy.
func (s *mirrorSet) pickRead() *Member {
	for range s.reps {
		m := s.reps[s.next%len(s.reps)]
		s.next++
		if m.state == StateHealthy {
			return m
		}
	}
	return nil
}

// degraded reports whether the column is short of fully-synced replicas.
func (s *mirrorSet) degraded() bool {
	for _, m := range s.reps {
		if m.state != StateHealthy {
			return true
		}
	}
	return false
}

// Volume is a virtual block device striped and/or mirrored over fleet
// members. It implements blockdev.Device: on queue pairs and in blocking
// calls alike, requests are split at chunk boundaries and fanned out to
// the member queues.
type Volume struct {
	name string
	mgr  *Manager
	env  *sim.Env

	chunk  int64
	sets   []*mirrorSet
	colCap int64 // usable bytes per stripe column
	ssize  int

	rebuildCfg RebuildConfig

	stats Stats

	sync *blockdev.SyncAdapter // the blocking Device calls, over issue

	// Fan-out object pools: the split path reuses a bounded working set of
	// fan-out trackers, per-chunk operations, and sub-request legs instead
	// of allocating per parent request. Every pooled object keeps its
	// completion callback bound from first construction, so steady-state
	// traffic creates no method-value closures either.
	fanOuts      sim.Pool[*fanOut]
	readOps      sim.Pool[*readOp]
	updateOps    sim.Pool[*updateOp]
	subUpdates   sim.Pool[*subUpdate]
	subFlushes   sim.Pool[*subFlush]
	flushScratch []*Member // issueFlush target gather; valid within one call
}

// startUpdateArg is the closure-free Schedule trampoline for restarting a
// parked chunk update (rebuild window release).
var startUpdateArg = func(a any) { a.(*updateOp).start() }

// CreateVolume composes healthy, unassigned fleet members into a volume.
// Member capacities are aligned down to the chunk size; the volume's
// capacity is columns x min member capacity.
func (mgr *Manager) CreateVolume(name string, l Layout, opt Options) (*Volume, error) {
	if _, dup := mgr.vols[name]; dup {
		return nil, fmt.Errorf("volume: volume %q already exists", name)
	}
	if len(l.Sets) == 0 {
		return nil, fmt.Errorf("volume: layout has no member sets")
	}
	v := &Volume{name: name, mgr: mgr, env: mgr.env, rebuildCfg: opt.Rebuild.withDefaults()}
	seen := make(map[int]bool)
	for si, ids := range l.Sets {
		if len(ids) == 0 {
			return nil, fmt.Errorf("volume: set %d is empty", si)
		}
		set := &mirrorSet{idx: si, v: v}
		for _, id := range ids {
			if id < 0 || id >= len(mgr.members) {
				return nil, fmt.Errorf("volume: no member %d", id)
			}
			if seen[id] {
				return nil, fmt.Errorf("volume: member %d listed twice", id)
			}
			seen[id] = true
			m := mgr.members[id]
			if m.state != StateHealthy || m.vol != nil {
				return nil, fmt.Errorf("volume: member %d is %v/assigned, not a free healthy device", id, m.state)
			}
			set.reps = append(set.reps, m)
		}
		v.sets = append(v.sets, set)
	}
	first := v.sets[0].reps[0]
	v.ssize = first.tgt.SectorSize()
	if l.Chunk == 0 {
		l.Chunk = 256 << 10
	}
	if l.Chunk%int64(v.ssize) != 0 || l.Chunk <= 0 {
		return nil, fmt.Errorf("volume: chunk %dB is not a positive multiple of the %dB sector", l.Chunk, v.ssize)
	}
	v.chunk = l.Chunk
	// The rebuild cursor must stay chunk-aligned: a chunk update can then
	// never straddle it (behind → spare too, ahead → survivors only, and
	// anything overlapping the active copy window parks).
	if rem := v.rebuildCfg.CopyChunk % v.chunk; rem != 0 {
		v.rebuildCfg.CopyChunk += v.chunk - rem
	}
	v.colCap = 1<<62 - 1
	for _, set := range v.sets {
		for _, m := range set.reps {
			if c := m.tgt.Capacity(); c < v.colCap {
				v.colCap = c
			}
		}
	}
	v.colCap = v.colCap / v.chunk * v.chunk
	if v.colCap <= 0 {
		return nil, fmt.Errorf("volume: members too small for chunk %dB", v.chunk)
	}
	for _, set := range v.sets {
		for _, m := range set.reps {
			m.vol = v
		}
	}
	v.sync = blockdev.NewSyncAdapter(v.env, v, v.issue)
	v.initPools()
	mgr.vols[name] = v
	mgr.volOrder = append(mgr.volOrder, name)
	return v, nil
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// SectorSize implements blockdev.Device.
func (v *Volume) SectorSize() int { return v.ssize }

// Capacity implements blockdev.Device.
func (v *Volume) Capacity() int64 { return v.colCap * int64(len(v.sets)) }

// Chunk returns the striping unit.
func (v *Volume) Chunk() int64 { return v.chunk }

// Stats returns a snapshot of the volume datapath counters.
func (v *Volume) Stats() Stats { return v.stats }

// OpenQueue implements blockdev.QueueProvider: the volume's native
// asynchronous datapath, sharing the generic queue state machine (depth
// bounding, flush barriers, drain) with every other device model.
func (v *Volume) OpenQueue(_ *sim.Env, depth int) blockdev.Queue {
	return blockdev.NewQueue(v.env, v, depth, v.issue)
}

// Blocking blockdev.Device calls, on the same issue function.

// Read implements blockdev.Device.
func (v *Volume) Read(p *sim.Proc, off int64, buf []byte, n int64) error {
	return v.sync.Read(p, off, buf, n)
}

// Write implements blockdev.Device.
func (v *Volume) Write(p *sim.Proc, off int64, buf []byte, n int64) error {
	return v.sync.Write(p, off, buf, n)
}

// Flush implements blockdev.Device.
func (v *Volume) Flush(p *sim.Proc) error {
	return v.sync.Flush(p)
}

// Trim implements blockdev.Device.
func (v *Volume) Trim(p *sim.Proc, off, n int64) error {
	return v.sync.Trim(p, off, n)
}

// ---- asynchronous fan-out datapath ----

// initPools gives each fan-out pool the constructor of its misses, which
// binds the object's completion callback once for its lifetime.
func (v *Volume) initPools() {
	v.fanOuts.New = func() *fanOut { return &fanOut{v: v} }
	v.readOps.New = func() *readOp {
		op := &readOp{}
		op.sub.OnComplete = op.complete
		return op
	}
	v.updateOps.New = func() *updateOp { return new(updateOp) }
	v.subUpdates.New = func() *subUpdate {
		s := &subUpdate{}
		s.r.OnComplete = s.complete
		return s
	}
	v.subFlushes.New = func() *subFlush {
		s := &subFlush{}
		s.r.OnComplete = s.complete
		return s
	}
}

// issue is the volume's blockdev.IssueFunc: one validated parent request
// in, exactly one asynchronous done callback out.
func (v *Volume) issue(req *blockdev.Request, done func(*blockdev.Request)) {
	switch req.Op {
	case blockdev.ReqFlush:
		v.issueFlush(req, done)
	default:
		v.issueData(req, done)
	}
}

// fanOut tracks one parent request across its chunk sub-operations. It is
// pooled on the volume: the final resolve returns it to the free list
// right before the parent's done callback runs, so a callback that
// resubmits immediately reuses the same tracker.
type fanOut struct {
	v         *Volume
	req       *blockdev.Request
	done      func(*blockdev.Request)
	remaining int
	err       error
}

func (v *Volume) getFanOut(req *blockdev.Request, done func(*blockdev.Request)) *fanOut {
	f := v.fanOuts.Get()
	f.req, f.done, f.remaining, f.err = req, done, 0, nil
	return f
}

// resolve records one sub-operation outcome; the last one completes the
// parent. It always runs in simulation context, never synchronously from
// within issue.
func (f *fanOut) resolve(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
	f.remaining--
	if f.remaining == 0 {
		v, req, done := f.v, f.req, f.done
		req.Err = f.err
		f.req, f.done, f.err = nil, nil, nil
		v.fanOuts.Put(f)
		done(req)
	}
}

// issueData splits a read/write/trim at chunk boundaries, maps each piece
// to its stripe column, and starts the per-chunk operations. The chunk
// count is computed up front so the fan-out is armed before the first
// operation starts; the operations themselves come from the volume's
// pools and start straight out of the split loop.
func (v *Volume) issueData(req *blockdev.Request, done func(*blockdev.Request)) {
	if req.Length == 0 {
		v.env.Schedule(0, func() { done(req) })
		return
	}
	switch req.Op {
	case blockdev.ReqRead:
		v.stats.Reads++
	case blockdev.ReqWrite:
		v.stats.Writes++
	}
	fo := v.getFanOut(req, done)
	nSets := int64(len(v.sets))
	fo.remaining = int((req.Off+req.Length-1)/v.chunk - req.Off/v.chunk + 1)
	off, rem, bufLo := req.Off, req.Length, int64(0)
	for rem > 0 {
		ci := off / v.chunk
		n := v.chunk - off%v.chunk
		if n > rem {
			n = rem
		}
		set := v.sets[ci%nSets]
		moff := (ci/nSets)*v.chunk + off%v.chunk
		var buf []byte
		if req.Buf != nil {
			buf = req.Buf[bufLo : bufLo+n]
		}
		if req.Op == blockdev.ReqRead {
			v.getReadOp(fo, set, moff, n, buf).start()
		} else {
			v.getUpdateOp(fo, set, moff, n, buf).start()
		}
		off += n
		bufLo += n
		rem -= n
	}
}

// failAsync resolves a sub-operation with err from scheduler context.
func (f *fanOut) failAsync(err error) {
	f.v.env.Schedule(0, func() { f.resolve(err) })
}

// readOp serves one chunk read from one replica, failing over to the
// others (and re-rolling transient faults) before giving up. Pooled: the
// op recycles itself right before its final resolve, so it must not touch
// its fields afterwards.
type readOp struct {
	fo       *fanOut
	set      *mirrorSet
	off, n   int64
	buf      []byte
	attempts int
	sub      blockdev.Request
}

func (v *Volume) getReadOp(fo *fanOut, set *mirrorSet, off, n int64, buf []byte) *readOp {
	op := v.readOps.Get()
	op.fo, op.set, op.off, op.n, op.buf, op.attempts = fo, set, off, n, buf, 0
	return op
}

func (v *Volume) putReadOp(op *readOp) {
	op.fo, op.set, op.buf = nil, nil, nil
	op.sub.Buf = nil
	v.readOps.Put(op)
}

func (op *readOp) start() {
	v := op.fo.v
	m := op.set.pickRead()
	if m == nil {
		fo := op.fo
		v.putReadOp(op)
		fo.failAsync(ErrNoReplica)
		return
	}
	if op.set.degraded() {
		v.stats.DegradedReads++
	}
	op.sub.Op, op.sub.Off, op.sub.Buf, op.sub.Length, op.sub.Err =
		blockdev.ReqRead, op.off, op.buf, op.n, nil
	m.submit(&op.sub)
}

func (op *readOp) complete(r *blockdev.Request) {
	v := op.fo.v
	if r.Err == nil {
		fo := op.fo
		v.putReadOp(op)
		fo.resolve(nil)
		return
	}
	op.attempts++
	if v.mgr.downtime {
		fo, err := op.fo, r.Err
		v.putReadOp(op)
		fo.resolve(err)
		return
	}
	if op.attempts < retryLimit*len(op.set.reps) {
		v.stats.RetriedReads++
		op.start() // the cursor moves on to the next replica
		return
	}
	fo, err := op.fo, r.Err
	v.putReadOp(op)
	fo.resolve(err)
}

// updateOp fans one chunk write or trim (its parent request's op) out to
// every replica of its set that must take it: the live ones, plus a
// rebuilding spare once the chunk lies behind the rebuild cursor. An update
// overlapping the rebuild engine's active copy window parks until the
// window moves. A replica that keeps failing after retries is ejected (its
// device is failed), so a stale replica can never serve reads; the update
// succeeds as long as one replica took it. Writes and trims share all of
// it: a trim that skipped the spare or slipped past the copy window would
// leave the spare holding bytes its peers dropped (DESIGN.md §"Mirror
// updates").
type updateOp struct {
	fo          *fanOut
	set         *mirrorSet
	off, n      int64
	buf         []byte
	outstanding int
	succ        int
	firstErr    error
	targets     []*Member // per-op gather, reused across recycles
}

func (v *Volume) getUpdateOp(fo *fanOut, set *mirrorSet, off, n int64, buf []byte) *updateOp {
	u := v.updateOps.Get()
	u.fo, u.set, u.off, u.n, u.buf = fo, set, off, n, buf
	u.outstanding, u.succ, u.firstErr = 0, 0, nil
	return u
}

func (v *Volume) putUpdateOp(u *updateOp) {
	u.fo, u.set, u.buf, u.firstErr = nil, nil, nil, nil
	u.targets = u.targets[:0]
	v.updateOps.Put(u)
}

func (u *updateOp) start() {
	v := u.fo.v
	set := u.set
	if rb := set.rb; rb != nil && u.off < rb.activeHi && u.off+u.n > rb.activeLo {
		v.stats.ParkedWrites++
		rb.waiters = append(rb.waiters, u)
		return
	}
	u.targets = u.targets[:0]
	for _, m := range set.reps {
		switch m.state {
		case StateHealthy:
			u.targets = append(u.targets, m)
		case StateRebuilding:
			if rb := set.rb; rb != nil && u.off+u.n <= rb.cursor {
				u.targets = append(u.targets, m)
			}
		}
	}
	if len(u.targets) == 0 {
		fo := u.fo
		v.putUpdateOp(u)
		fo.failAsync(ErrNoReplica)
		return
	}
	u.outstanding = len(u.targets)
	for _, m := range u.targets {
		u.issueTo(m, 1)
	}
}

func (u *updateOp) issueTo(m *Member, attempt int) {
	v := u.fo.v
	s := v.subUpdates.Get()
	s.u, s.m, s.attempt = u, m, attempt
	s.r.Op, s.r.Off, s.r.Buf, s.r.Length, s.r.Err =
		u.fo.req.Op, u.off, u.buf, u.n, nil
	m.submit(&s.r)
}

// subUpdate is one replica leg of a chunk update. Pooled: complete moves
// its fields to locals and recycles the leg up front, so any resubmission
// triggered further down the callback chain may reuse it immediately.
type subUpdate struct {
	u       *updateOp
	m       *Member
	attempt int
	r       blockdev.Request
}

func (s *subUpdate) complete(r *blockdev.Request) {
	u, m, attempt, err := s.u, s.m, s.attempt, r.Err
	v := u.fo.v
	s.u, s.m = nil, nil
	s.r.Buf = nil
	v.subUpdates.Put(s)
	if err == nil {
		u.replicaDone(nil)
		return
	}
	if v.mgr.downtime {
		u.replicaDone(err)
		return
	}
	if m.state == StateHealthy && attempt < retryLimit {
		v.stats.RetriedWrites++
		u.issueTo(m, attempt+1)
		return
	}
	if m.state == StateHealthy {
		// Persistent failure on a live member: eject it. Leaving it in the
		// array would let a replica missing this update serve reads.
		v.stats.Ejections++
		m.oc.Fail()
	}
	u.replicaDone(err)
}

// replicaDone accounts one finished replica leg. The update acknowledges
// when every leg has finished: it succeeds if any replica took it (failed
// legs were ejected) and fails only when all did.
func (u *updateOp) replicaDone(err error) {
	if err == nil {
		u.succ++
	} else if u.firstErr == nil {
		u.firstErr = err
	}
	if u.outstanding--; u.outstanding > 0 {
		return
	}
	fo, succ, firstErr := u.fo, u.succ, u.firstErr
	fo.v.putUpdateOp(u)
	if succ > 0 {
		firstErr = nil
	}
	fo.resolve(firstErr)
}

// issueFlush fans the barrier out to every member currently holding live
// data (including a rebuilding spare — its copied chunks must be durable
// too). Errors from members that died mid-flush are ignored: their data
// no longer backs the volume.
func (v *Volume) issueFlush(req *blockdev.Request, done func(*blockdev.Request)) {
	fo := v.getFanOut(req, done)
	v.flushScratch = v.flushScratch[:0]
	for _, set := range v.sets {
		for _, m := range set.reps {
			if m.state == StateHealthy || m.state == StateRebuilding {
				v.flushScratch = append(v.flushScratch, m)
			}
		}
	}
	if len(v.flushScratch) == 0 {
		fo.remaining = 1
		fo.failAsync(ErrNoReplica)
		return
	}
	fo.remaining = len(v.flushScratch)
	for _, m := range v.flushScratch {
		s := v.subFlushes.Get()
		s.fo, s.m = fo, m
		s.r.Op, s.r.Off, s.r.Buf, s.r.Length, s.r.Err =
			blockdev.ReqFlush, 0, nil, 0, nil
		m.one[0] = &s.r
		m.q.Submit(m.one[:]...)
	}
}

// subFlush is one member leg of a volume flush barrier.
type subFlush struct {
	fo *fanOut
	m  *Member
	r  blockdev.Request
}

func (s *subFlush) complete(r *blockdev.Request) {
	fo, m, err := s.fo, s.m, r.Err
	v := fo.v
	s.fo, s.m = nil, nil
	v.subFlushes.Put(s)
	if m.state == StateDead {
		err = nil
	}
	fo.resolve(err)
}

// AttachSpare replaces the first dead replica in the volume with sp and
// starts the online rebuild engine filling it. sp must be an unassigned
// pool spare (TakeSpare). Must run in simulation context.
func (v *Volume) AttachSpare(sp *Member) error {
	if sp.state != StateSpare {
		return fmt.Errorf("volume: member %d is %v, not a pool spare", sp.id, sp.state)
	}
	for _, set := range v.sets {
		for i, m := range set.reps {
			if m.state != StateDead {
				continue
			}
			m.vol = nil
			set.reps[i] = sp
			sp.state = StateRebuilding
			sp.vol = v
			v.startRebuild(set, sp)
			return nil
		}
	}
	return fmt.Errorf("volume: %s has no dead replica awaiting a spare", v.name)
}

// Degraded reports whether any column is short of fully-synced replicas.
func (v *Volume) Degraded() bool {
	for _, set := range v.sets {
		if set.degraded() {
			return true
		}
	}
	return false
}

// Rebuilding reports whether any column has an active rebuild.
func (v *Volume) Rebuilding() bool {
	for _, set := range v.sets {
		if set.rb != nil {
			return true
		}
	}
	return false
}

// RebuildProgress returns the completed fraction of the active rebuild
// (the least-advanced one when several run), 1 when none is active.
func (v *Volume) RebuildProgress() float64 {
	p := 1.0
	for _, set := range v.sets {
		if rb := set.rb; rb != nil {
			if f := float64(rb.cursor) / float64(v.colCap); f < p {
				p = f
			}
		}
	}
	return p
}

// WaitRebuild suspends p until every active rebuild on the volume has
// finished, reporting whether all of them completed successfully.
func (v *Volume) WaitRebuild(p *sim.Proc) bool {
	ok := true
	for _, set := range v.sets {
		for set.rb != nil {
			rb := set.rb
			p.Wait(rb.proc.Done())
			ok = ok && rb.ok
		}
	}
	return ok
}

// Status is the operator view of a volume.
type Status struct {
	Name       string
	Layout     string
	Capacity   int64
	Degraded   bool
	Rebuilding bool
	RebuildPct float64
}

// Status snapshots the volume's health.
func (v *Volume) Status() Status {
	return Status{
		Name:       v.name,
		Layout:     v.LayoutString(),
		Capacity:   v.Capacity(),
		Degraded:   v.Degraded(),
		Rebuilding: v.Rebuilding(),
		RebuildPct: v.RebuildProgress() * 100,
	}
}

// LayoutString renders the layout, e.g. "stripe[4] chunk=256K",
// "mirror[2]", or "stripe[2]xmirror[2] chunk=128K".
func (v *Volume) LayoutString() string {
	reps := len(v.sets[0].reps)
	switch {
	case len(v.sets) == 1:
		return fmt.Sprintf("mirror[%d]", reps)
	case reps == 1:
		return fmt.Sprintf("stripe[%d] chunk=%dK", len(v.sets), v.chunk>>10)
	default:
		return fmt.Sprintf("stripe[%d]xmirror[%d] chunk=%dK", len(v.sets), reps, v.chunk>>10)
	}
}

// ResyncReport summarizes a volume-level consistency pass.
type ResyncReport struct {
	ChunksScanned    int64
	ChunksMismatched int64
	BytesRepaired    int64
	Elapsed          time.Duration
}

// Resync is the volume-level consistency check: it walks every mirrored
// column chunk by chunk, compares the replicas, and repairs divergence by
// rewriting the other replicas from the first live one. After a power cut
// the replicas can legitimately diverge on writes that were still in
// flight (never acknowledged); resync converges them so a read returns the
// same bytes whichever replica serves it. Acknowledged, flushed data is
// identical on all replicas already and is never altered.
func (v *Volume) Resync(p *sim.Proc) (ResyncReport, error) {
	var rep ResyncReport
	start := v.env.Now()
	for _, set := range v.sets {
		reps := set.healthy()
		if len(reps) < 2 {
			continue
		}
		bufs := make([][]byte, len(reps))
		for i := range bufs {
			bufs[i] = make([]byte, v.chunk)
		}
		for off := int64(0); off < v.colCap; off += v.chunk {
			n := v.chunk
			if v.colCap-off < n {
				n = v.colCap - off
			}
			for i, m := range reps {
				if err := m.sync.Read(p, off, bufs[i][:n], n); err != nil {
					return rep, fmt.Errorf("volume: resync read %s@%d: %w", m.name, off, err)
				}
			}
			rep.ChunksScanned++
			for i := 1; i < len(reps); i++ {
				if !bytes.Equal(bufs[i][:n], bufs[0][:n]) {
					rep.ChunksMismatched++
					if err := reps[i].sync.Write(p, off, bufs[0][:n], n); err != nil {
						return rep, fmt.Errorf("volume: resync repair %s@%d: %w", reps[i].name, off, err)
					}
					rep.BytesRepaired += n
				}
			}
		}
		for _, m := range reps {
			if err := m.sync.Flush(p); err != nil {
				return rep, fmt.Errorf("volume: resync flush %s: %w", m.name, err)
			}
		}
	}
	rep.Elapsed = v.env.Now() - start
	return rep, nil
}
