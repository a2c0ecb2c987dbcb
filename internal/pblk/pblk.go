// Package pblk implements the paper's host-based Flash Translation Layer
// target (§4.2): a fully associative FTL that exposes an open-channel SSD
// as a traditional block device.
//
// Responsibilities, mirroring the paper:
//   - write buffering in a host-side ring buffer sized to write unit, the
//     paper's lower/upper pair depth, and PU count (§4.2.1), drained by
//     per-lane writer processes behind a sharding dispatcher so every
//     active PU programs independently;
//   - two write streams per lane — user data and GC rewrites — so hot and
//     cold data never share a block group;
//   - L2P mapping at 4 KB sector granularity, with striping across channels
//     and PUs at page granularity and a run-time tunable number of active
//     write PUs;
//   - flush handling with padding to full flash pages;
//   - mapping-table persistence (snapshot, block first/last page metadata,
//     per-page OOB) and two-phase crash recovery (§4.2.2);
//   - write/erase error handling: remap+resubmit of failed sectors, block
//     retirement (§4.2.3);
//   - pipelined garbage collection — a scheduler keeps several victims in
//     flight, each moved by one of a fixed set of worker processes —
//     behind a PID-controlled rate limiter (§4.2.4).
//
// A target mounts on a reserved lightnvm media view (NewView), or on a
// whole device, which New reserves for it.
package pblk

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/lightnvm"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// Config tunes a pblk instance. The zero value is completed by Default.
type Config struct {
	// ActivePUs is the number of PUs concurrently receiving new writes
	// (paper §4.2.1). 0 means all PUs.
	ActivePUs int
	// MaxInflightPerPU bounds write units queued on one PU by its lane
	// writer (the kernel's per-LUN write semaphore).
	MaxInflightPerPU int
	// OverProvision is the fraction of media capacity reserved for GC.
	OverProvision float64
	// HostReadOverhead/HostWriteOverhead model pblk's per-request CPU cost
	// (paper §5.1: +0.4 µs reads, +0.9 µs writes).
	HostReadOverhead  time.Duration
	HostWriteOverhead time.Duration
	// GCPipelineDepth is the number of victim groups the GC scheduler may
	// keep in flight concurrently: victim selection, reverse-map reads,
	// valid-sector reads, and lane drains of different victims overlap.
	// Concurrency beyond one victim engages only under admission freezes
	// or idle catch-up (see gcBacklogged); in ordinary paced scarcity the
	// scheduler collects serially on purpose, because each serial pick is
	// strictly cheaper. 1 falls back to a fully sequential reclaim loop.
	// 0 means the default.
	GCPipelineDepth int
	// SingleStream disables the dedicated GC write stream: GC rewrites are
	// dispatched onto the user stream and share block groups with user
	// data, as the pre-stream datapath did. Baselines only — mixing hot
	// and cold data inflates write amplification.
	SingleStream bool
	// Bench-only: HintPolicy is never read; a write hinted blockdev.HintCold
	// always rides the GC stream. It remains for the benchmark module, which
	// sets it and which changes only in a PR of its own.
	HintPolicy uint8
	// DisableRateLimiter lets characterization runs (paper §5.1 "rate-
	// limiter disabled") bypass user-write throttling.
	DisableRateLimiter bool
	// Scrubber (media self-healing). ScrubInterval > 0 enables a background
	// patrol process (scrub.go) that refreshes closed groups whose data is
	// at risk: groups older than ScrubRetentionAge since close, or whose
	// reads needed deep retry tiers ("relocate advised" hints from the
	// device) at least scrubRetryThreshold times, are drained through the
	// cold write stream and erased exactly like GC victims. The patrol
	// stands down while free space is below the GC start threshold. An
	// enabled scrubber keeps a patrol timer armed, so simulations must
	// Stop the target to run to completion.
	ScrubInterval     time.Duration
	ScrubRetentionAge time.Duration
}

// Bench-only: HintNativeStream once selected a third write stream for
// hinted writes; pblk has two streams and ignores the value.
const HintNativeStream = 2

// Default fills unset Config fields with the paper-faithful defaults.
func Default(cfg Config) Config {
	if cfg.MaxInflightPerPU == 0 {
		cfg.MaxInflightPerPU = 2
	}
	if cfg.OverProvision == 0 {
		cfg.OverProvision = 0.11
	}
	if cfg.HostReadOverhead == 0 {
		cfg.HostReadOverhead = 350 * time.Nanosecond
	}
	if cfg.HostWriteOverhead == 0 {
		cfg.HostWriteOverhead = 900 * time.Nanosecond
	}
	if cfg.GCPipelineDepth == 0 {
		cfg.GCPipelineDepth = 2
	}
	if cfg.GCPipelineDepth < 1 {
		cfg.GCPipelineDepth = 1
	}
	return cfg
}

// Stats aggregates pblk activity; fields the paper reports directly
// (flushes, padding, GC volume) are first.
type Stats struct {
	UserWrites       int64 // sectors acknowledged
	UserReads        int64 // sectors served
	CacheReads       int64 // sectors served from the write buffer
	Flushes          int64
	PaddedSectors    int64 // padding written for flushes and partial units
	GCMovedSectors   int64
	GCBlocksRecycled int64
	GCLostSectors    int64 // still-mapped sectors unreadable during a GC move
	GCPeakInFlight   int64 // high-water mark of concurrent GC victims
	WriteErrors      int64 // failed sectors remapped+resubmitted
	GCWriteErrors    int64 // write failures that hit in-flight GC rewrites
	EraseErrors      int64
	BadBlocks        int64
	Recoveries       int64 // full scans performed at init
	SnapshotLoads    int64
	// Scrubber (media self-healing) accounting.
	ScrubbedSectors     int64 // valid sectors rewritten by scrub refreshes
	ScrubAgeRefreshes   int64 // refreshes triggered by retention age
	ScrubRetryRefreshes int64 // refreshes triggered by deep-retry pressure
	// RecoverScanTime is the virtual time spent in mount-time scan
	// recovery (classify, close-meta reads, OOB scans, replay).
	RecoverScanTime time.Duration
}

// Block-group lifecycle states.
type groupState uint8

const (
	stFree groupState = iota
	stOpen
	stClosed
	stBad
	stGC      // victim being moved
	stSuspect // write failure observed; awaiting priority GC + retirement
	stSys     // reserved for the L2P snapshot
)

func (s groupState) String() string {
	switch s {
	case stFree:
		return "free"
	case stOpen:
		return "open"
	case stClosed:
		return "closed"
	case stBad:
		return "bad"
	case stGC:
		return "gc"
	case stSuspect:
		return "suspect"
	case stSys:
		return "sys"
	}
	return "?"
}

// group is a block group: the same block index across all planes of one PU,
// erased and programmed together (multi-plane operation unit).
type group struct {
	id     int
	pu     int // PU index within the partition
	blk    int // block index within each plane
	state  groupState
	seq    uint64 // allocation sequence number, for recovery ordering
	stream uint8  // write stream the group was opened for (user or GC)

	nextUnit int // next write unit (page index) to map
	// lbas accumulates the logical address of every mapped data sector, in
	// order, for the close metadata (the paper's block-level FTL log). It
	// and stamps are held from open until the close metadata is encoded.
	lbas []int64
	// stamps holds the admission stamp of every mapped data sector, in the
	// same order as lbas; scan recovery replays sectors across concurrently
	// open groups (several per PU, one per stream) in stamp order.
	stamps []uint64
	// pending[unit] holds the ring positions a submitted unit carries,
	// consumed when the unit's program completes. openGroup allocates the
	// table, and it is kept across the group's erase cycles.
	pending [][]uint64
	prev    int64 // previously opened group, stored in the open mark

	valid int // sectors whose current L2P mapping points into this group
	// gcPending counts in-flight GC rewrites out of this group; gcDone, set
	// while the group's mover waits for the drain, fires when it reaches
	// zero.
	gcPending int
	gcDone    *sim.Event
	// metaRemaining counts the group's close-metadata units still being
	// programmed; the group closes when it reaches zero.
	metaRemaining int
	// closedAt is the virtual time the group transitioned to closed; the
	// scrubber patrols closed groups oldest-first and refreshes on
	// retention age.
	closedAt int64
	// retryHints counts deep-retry "relocate advised" hints reads reported
	// against this group (scrub pressure).
	retryHints int
	// scrubQueued marks the group as waiting in the scrub refresh queue.
	scrubQueued bool
	// mover is the name a GC mover takes while it recycles the group
	// (sim.ProcPanic reports it); built once at mount, a group is recycled
	// many times.
	mover string
}

// slot is one write lane of the mapper: at any instant it owns a single
// active PU (paper §4.2.1) within its share of the PU space. Each lane
// also owns a shard of the write datapath — per-stream dispatch queues fed
// by the global ring, one open block group per stream, a retry queue for
// write-failed sectors on its PUs, and a dedicated writer process — so a
// stalled PU never blocks sibling lanes, and user data and GC rewrites
// never share a block.
type slot struct {
	lane       int
	puLo, puHi int // PU range [puLo, puHi) this lane rotates through
	curPU      int
	grp        [numStreams]*group // open group per stream, nil until first use
	sem        *sim.Resource      // bounds in-flight write units on the lane's PU

	// q holds dispatched chunks awaiting unit formation, one sub-queue per
	// stream. Chunks are stream-homogeneous: every entry of a chunk maps
	// into the stream's open group.
	q [numStreams]sim.FIFO[chunk]
	// retry holds chunks of write-failed sectors, resubmitted ahead of q
	// (§4.2.3) into the stream they came from.
	retry    sim.FIFO[chunk]
	qSectors [numStreams]int // sectors across q (retry excluded)
	kick     *sim.Event      // wakes the lane writer
	writer   *sim.Proc       // the lane writer, nil until startWriters
	quit     bool            // drain everything, then exit (lane rebuild)

	// Lane telemetry, surfaced by LaneStats.
	unitsWritten int64 // write units submitted by this lane
	stalls       int64 // writer blocked on the PU in-flight semaphore
	waits        int64 // writer parked waiting for work
	padded       int64 // padding sectors written by this lane
	peakDepth    int   // high-water mark of queued+retried sectors
}

// wake kicks the lane writer; signalling an already-fired kick is a no-op.
func (s *slot) wake() { s.kick.Signal() }

// acquire takes one in-flight unit on the lane's PU, counting a stall
// when the writer must wait for a completion.
func (s *slot) acquire(p *sim.Proc) {
	if !s.sem.TryAcquire() {
		s.stalls++
		s.sem.Acquire(p)
	}
}

// retrySectors counts write-failed sectors awaiting resubmission.
func (s *slot) retrySectors() int {
	n := 0
	for i := 0; i < s.retry.Len(); i++ {
		n += len(s.retry.At(i).poss)
	}
	return n
}

// queuedSectors counts dispatched sectors across all stream queues.
func (s *slot) queuedSectors() int {
	n := 0
	for st := 0; st < numStreams; st++ {
		n += s.qSectors[st]
	}
	return n
}

// pendingSectors counts everything the lane still has to submit.
func (s *slot) pendingSectors() int { return s.queuedSectors() + s.retrySectors() }

// flushReq tracks one Flush call: fires when the ring tail passes pos.
type flushReq struct {
	pos uint64
	ev  *sim.Event
}

// Pblk is a pblk target instance. It implements blockdev.Device. All
// methods must be called from simulation context.
//
// A pblk instance owns a partition of the device — a contiguous PU range
// wrapped in a lightnvm.MediaView — and every address pblk builds, stores
// in its L2P or metadata and decodes is a target address: its PU index
// (group table, lane spans, read fan-out, recovery scan) counts 0..nPUs-1
// through the partition. The view translates to device PUs at the
// submission boundary and rejects any address outside the partition, so
// several pblk instances coexist on one device without seeing each other's
// media. The instance holds the view and nothing that returns the
// ocssd.Device behind it, so that check is its only path to the media.
type Pblk struct {
	*blockdev.SyncAdapter // OpenQueue and the blocking Device calls, over IssueAsync

	name string
	env  *sim.Env
	dev  *lightnvm.MediaView
	fmtr ppa.Format
	geo  ppa.Geometry
	nPUs int // parallel units in this instance's partition
	cfg  Config

	unitSectors   int // sectors per write unit (planes * sectors/page)
	unitsPerGroup int // pages per block
	metaUnits     int // trailing units holding close metadata
	dataSectors   int // data sectors per group
	capacityLBAs  int64

	l2p          []uint64
	rb           ring
	groups       []*group
	freePerPU    []sim.FIFO[int] // free group ids per PU, oldest-freed first
	freeGroups   int
	usableGroups int // groups that can ever hold data (excludes sys/bad at init)
	seqCounter   uint64

	slots []*slot
	// gcOpenLanes counts lanes currently holding an open GC-stream group;
	// emergencyReserve holds back one free group per uncovered lane.
	gcOpenLanes int
	// pend holds ring positions scanned by the dispatcher but not yet cut
	// into a lane chunk, one FIFO per stream.
	pend [numStreams][]uint64
	// rrNext is the round-robin lane cursor, one per stream so both
	// streams stripe evenly across the active PUs.
	rrNext     [numStreams]int
	lastOpened int // most recently opened group id, -1 initially
	// unitStamp is the global write-order counter; every admitted sector
	// gets the next value, persisted in OOB and close metadata.
	unitStamp uint64

	// admitQ holds queue-pair writes awaiting ring admission in FIFO
	// order. admitActive marks the admission pump armed (queue.go). The
	// pump is a continuation, not a process: admitCur/admitSector are its
	// cursor and the bound step functions are created once.
	admitQ       sim.FIFO[pendingWrite]
	admitActive  bool
	admitCur     pendingWrite
	admitSector  int64
	admitStepFn  func()
	admitStartFn func()
	// suspects queues write-failed groups for priority GC + retirement.
	suspects sim.FIFO[int]
	// scrubQ queues closed groups for refresh through the GC machinery;
	// the scrubber (scrub.go) feeds it, launchVictims consumes it.
	scrubQ sim.FIFO[int]

	// Read fan-out pools (read.go): per-PU grouping scratch and the
	// request/chunk objects of the asynchronous read path.
	readPULists [][]mediaSector
	readPUOrder []int
	readReqs    sim.Pool[*readReq]
	readChunks  sim.Pool[*readChunk]

	// Write-path pools: vector-write scratch (write.go) and the ring
	// entries' sector payload buffers, recycled when the tail frees them.
	unitScratches sim.Pool[*unitScratch]
	dataBufs      sim.Pool[[]byte]
	// possLists recycles the ring-position lists that travel from dispatch
	// (chunk.poss) into writeUnitOn and from there (group.pending) back
	// out of finalizeUnit, so steady-state unit formation allocates
	// nothing.
	possLists sim.Pool[[]uint64]
	// metaScratches recycles the metadata-unit write contexts (open marks
	// and close-meta units, meta.go); closeMetaBuf is the reused
	// close-metadata serialization buffer.
	metaScratches sim.Pool[*metaScratch]
	closeMetaBuf  []byte
	// lbaLists and stampLists hold open groups' mapping logs (group.lbas,
	// group.stamps): a group takes a pair when it opens and gives it back
	// once its close metadata is encoded, so a closed group holds none.
	lbaLists   sim.Pool[[]int64]
	stampLists sim.Pool[[]uint64]
	// GC victim-drain pools (gc.go): move lists, vector-read chunks and
	// their per-victim chunk lists. events recycles fired one-shot events
	// (flush barriers).
	gcMoves      sim.Pool[[]gcMove]
	gcChunks     sim.Pool[*gcChunk]
	gcChunkLists sim.Pool[[]*gcChunk]
	events       sim.Pool[*sim.Event]

	flushes    sim.FIFO[flushReq]
	gcKick     *sim.Event
	stopping   bool // full stop: I/O rejected, loops exit
	crashed    bool // simulated power loss: writers abandon work instantly
	rebuilding bool // lane rebuild in flight: producers pause at admission
	gcStopping bool // GC scheduler asked to exit after in-flight victims drain
	gcActive   bool // GC hysteresis state
	gcInFlight int  // victims currently owned by a GC worker
	// gcIdle holds the GC movers parked without a victim.
	gcIdle sim.Pool[*gcMover]
	// gcRetiring counts in-flight victims on the retire (suspect) path:
	// they end as bad blocks, not free groups, so hysteresis must not
	// treat them as prospective free space.
	gcRetiring int
	// gcAdmit serializes ring admission across concurrent GC workers so
	// victims drain oldest-first (reads still overlap; see moveValid).
	gcAdmit *sim.Resource
	gcDone  *sim.Event
	// Scrubber plumbing: the patrol loop parks on scrubKick and re-arms a
	// one-shot timer for the next known deadline; lastScrubNS paces the
	// patrol to one queueing burst per ScrubInterval.
	scrubKick     *sim.Event
	scrubDone     *sim.Event
	scrubStopping bool
	scrubTimer    bool // a patrol timer is currently armed
	lastScrubNS   int64
	// stateEv is the event-driven replacement for the old polling waits:
	// it fires on any group state transition or ring drain progress, and
	// quiesce/waitGroupClosed re-check their condition on each firing.
	stateEv *sim.Event

	rl rateLimiter

	Stats Stats
}

var (
	// ErrStopped is returned for I/O after Stop.
	ErrStopped = errors.New("pblk: target stopped")
	// ErrReadFailed is returned when the device reports an uncorrectable
	// read; recovery must be handled above pblk (paper §4.2.3).
	ErrReadFailed = errors.New("pblk: uncorrectable media read")
)

var _ blockdev.Device = (*Pblk)(nil)

// New creates a pblk instance over the whole device: it reserves every
// PU under name and mounts NewView on the reservation. It must be called
// from simulation context because recovery performs device I/O. For a
// partitioned instance sharing the device with other targets, reserve its
// range with Device.Reserve and call NewView.
func New(p *sim.Proc, dev *lightnvm.Device, name string, cfg Config) (*Pblk, error) {
	view, err := dev.Reserve(name, lightnvm.PURange{})
	if err != nil {
		return nil, err
	}
	return NewView(p, view, cfg)
}

// NewView creates a pblk instance named after its media view — the
// partition of the device this instance owns — running recovery (snapshot
// load or two-phase scan) before returning. All of the instance's state
// (group table, lanes, L2P, recovery) is confined to the view's PU range.
// The instance holds the view until Stop, Shutdown or Crash releases it;
// when construction fails, NewView releases it at once.
func NewView(p *sim.Proc, view *lightnvm.MediaView, cfg Config) (k *Pblk, err error) {
	defer func() {
		if err != nil {
			view.Release()
		}
	}()
	cfg = Default(cfg)
	geo := view.Geometry()
	nPUs := view.PUs()
	if cfg.ActivePUs == 0 {
		cfg.ActivePUs = nPUs
	}
	if cfg.ActivePUs < 1 || cfg.ActivePUs > nPUs {
		return nil, fmt.Errorf("pblk: ActivePUs %d outside [1,%d]", cfg.ActivePUs, nPUs)
	}
	if nPUs%cfg.ActivePUs != 0 {
		return nil, fmt.Errorf("pblk: ActivePUs %d must divide partition PUs %d", cfg.ActivePUs, nPUs)
	}
	k = &Pblk{
		name: view.Name(),
		env:  view.Env(),
		dev:  view,
		fmtr: view.Format(),
		geo:  geo,
		nPUs: nPUs,
		cfg:  cfg,
	}
	k.SyncAdapter = blockdev.NewSyncAdapter(k.env, k, k.IssueAsync)
	k.initPools()
	k.unitSectors = geo.PlanesPerPU * geo.SectorsPerPage
	k.unitsPerGroup = geo.PagesPerBlock
	k.metaUnits = k.closeMetaUnits()
	if k.unitsPerGroup < k.metaUnits+2 {
		return nil, fmt.Errorf("pblk: geometry too small: %d units/group, need %d metadata units plus open mark and data", k.unitsPerGroup, k.metaUnits)
	}
	k.dataSectors = (k.unitsPerGroup - 1 - k.metaUnits) * k.unitSectors
	if view.SectorOOBSize() < oobBytes {
		return nil, fmt.Errorf("pblk: per-sector OOB %dB too small, need %dB for L2P metadata", view.SectorOOBSize(), oobBytes)
	}
	k.lastOpened = -1
	k.initGroups()
	k.initCapacity()
	// The paper's buffer sizing (§4.2.1): write unit × PUs × 8, the depth
	// it sizes for its MLC drive's lower/upper page pairs. Pages here are
	// unpaired, so nothing waits on that depth; it stays the buffer size.
	k.rb.init(k.env, k.unitSectors*8*nPUs)
	if err := k.checkSpare(cfg.ActivePUs); err != nil {
		return nil, err
	}
	k.l2p = make([]uint64, k.capacityLBAs)
	k.readPULists = make([][]mediaSector, nPUs)
	k.rb.freeEntry = k.releaseEntryData
	k.rl = newRateLimiter(k.rb.capacity(), k.unitSectors)
	k.gcKick = k.env.NewEvent()
	k.gcAdmit = k.env.NewResource(1)
	k.gcDone = k.env.NewEvent()
	k.scrubKick = k.env.NewEvent()
	k.scrubDone = k.env.NewEvent()
	k.stateEv = k.env.NewEvent()
	if err := k.recover(p); err != nil {
		return nil, err
	}
	k.buildSlots()
	// The limiter's setpoint sits halfway between the GC trigger and the
	// emergency floor: GC deliberately lets free space sink below the
	// trigger while it waits for cheap victims (gcMaxValidFrac), and the
	// PID should begin throttling users only as that slack runs out.
	k.rl.calibrate(k.spareGroups(), (k.gcStartGroups()+k.emergencyReserve())/2)
	k.rl.update(k.freeGroups)
	k.startWriters()
	k.startMovers()
	k.env.Go("pblk."+k.name+".gc", k.gcLoop)
	if k.scrubOn() {
		k.env.Go("pblk."+k.name+".scrub", k.scrubLoop)
	} else {
		k.scrubDone.Signal()
	}
	return k, nil
}

// checkSpare reports an error unless the spare pool covers n active PUs:
// the emergency reserve (which scales with the ring backlog), one open
// group per stream on every lane, and hysteresis slack. Short of that,
// user admission can freeze permanently at capacity below a floor the
// device cannot climb back over.
func (k *Pblk) checkSpare(n int) error {
	reserveGroups := (k.rb.capacity()+k.dataSectors-1)/k.dataSectors + 4
	spare := int64(k.usableGroups)*int64(k.dataSectors) - k.capacityLBAs
	if need := int64(reserveGroups+numStreams*n+2) * int64(k.dataSectors); spare < need {
		return fmt.Errorf("pblk: over-provisioning too small: %d spare sectors, need %d for %d active PUs (raise OverProvision or BlocksPerPlane)",
			spare, need, n)
	}
	return nil
}

// initPools gives each object pool the constructor of its misses. Every
// pooled context binds its completion callback here, once for its lifetime.
func (k *Pblk) initPools() {
	k.readReqs.New = func() *readReq {
		r := &readReq{k: k}
		r.resolveFn = r.resolve
		return r
	}
	k.readChunks.New = func() *readChunk {
		c := &readChunk{}
		c.cbFn = c.onComplete
		return c
	}
	k.unitScratches.New = func() *unitScratch {
		u := &unitScratch{k: k}
		u.cbFn = u.onProgrammed
		return u
	}
	k.dataBufs.New = func() []byte { return make([]byte, k.geo.SectorSize) }
	k.possLists.New = func() []uint64 { return make([]uint64, 0, k.unitSectors) }
	k.lbaLists.New = func() []int64 { return make([]int64, 0, k.dataSectors) }
	k.stampLists.New = func() []uint64 { return make([]uint64, 0, k.dataSectors) }
	k.metaScratches.New = func() *metaScratch {
		ms := &metaScratch{k: k}
		ms.cbFn = ms.onProgrammed
		return ms
	}
	k.gcChunks.New = func() *gcChunk {
		rc := &gcChunk{k: k, done: k.env.NewEvent()}
		rc.cbFn = rc.onData
		return rc
	}
	k.events.New = k.env.NewEvent
}

// initGroups builds the group table and free lists. Group 0 on the
// partition's PU 0 is the reserved snapshot area — each partition carries
// its own snapshot, so co-resident instances persist independently. All
// PU indices here are partition-relative.
func (k *Pblk) initGroups() {
	nPU := k.nPUs
	perPU := k.geo.BlocksPerPlane
	k.groups = make([]*group, nPU*perPU)
	k.freePerPU = make([]sim.FIFO[int], nPU)
	// One slab for all group structs: at fleet geometries the table runs
	// to thousands of entries, and per-entry allocations dominate mount.
	slab := make([]group, nPU*perPU)
	for pu := 0; pu < nPU; pu++ {
		for b := 0; b < perPU; b++ {
			id := pu*perPU + b
			g := &slab[id]
			*g = group{id: id, pu: pu, blk: b, state: stFree, prev: -1,
				mover: fmt.Sprintf("pblk.%s.gcmove%d", k.name, id)}
			k.groups[id] = g
			if pu == 0 && b == 0 {
				g.state = stSys
				continue
			}
			if k.groupFactoryBad(g) {
				g.state = stBad
				k.Stats.BadBlocks++
				continue
			}
			k.freePerPU[pu].Push(id)
			k.freeGroups++
			k.usableGroups++
		}
	}
}

// groupFactoryBad reports whether any plane block of the group is bad.
func (k *Pblk) groupFactoryBad(g *group) bool {
	die := k.dev.Die(g.pu)
	for pl := 0; pl < k.geo.PlanesPerPU; pl++ {
		if die.IsBad(pl, g.blk) {
			return true
		}
	}
	return false
}

// initCapacity derives the exported LBA space from usable groups minus
// over-provisioning.
func (k *Pblk) initCapacity() {
	total := int64(k.usableGroups) * int64(k.dataSectors)
	k.capacityLBAs = int64(float64(total) * (1 - k.cfg.OverProvision))
	if k.capacityLBAs < 1 {
		k.capacityLBAs = 1
	}
}

// buildSlots partitions the instance's PU space over ActivePUs write
// lanes; lane spans are partition-relative.
func (k *Pblk) buildSlots() {
	n := k.cfg.ActivePUs
	total := k.nPUs
	span := total / n
	k.slots = make([]*slot, n)
	slab := make([]slot, n)
	for i := range k.slots {
		slab[i] = slot{
			lane:  i,
			puLo:  i * span,
			puHi:  (i + 1) * span,
			curPU: i * span,
			sem:   k.env.NewResource(k.cfg.MaxInflightPerPU),
			kick:  k.env.NewEvent(),
		}
		k.slots[i] = &slab[i]
	}
	for st := range k.rrNext {
		k.rrNext[st] = 0
	}
	k.gcOpenLanes = 0
}

// startWriters spawns one writer process per lane.
func (k *Pblk) startWriters() {
	for _, s := range k.slots {
		s := s
		s.writer = k.env.Go(fmt.Sprintf("pblk.%s.writer%d", k.name, s.lane), func(p *sim.Proc) {
			k.laneWriter(p, s)
		})
	}
}

// stopWriters asks every lane writer to drain its queue — padding partial
// units if needed — and waits until all of them have exited. Producers
// must already be paused (stopping or rebuilding) so no new work lands on
// a dead lane.
func (k *Pblk) stopWriters(p *sim.Proc) {
	for _, s := range k.slots {
		s.quit = true
	}
	k.kickWriters()
	k.rb.signalSpace()
	for _, s := range k.slots {
		if s.writer != nil {
			p.Wait(s.writer.Done())
		}
	}
}

// SectorSize implements blockdev.Device.
func (k *Pblk) SectorSize() int { return k.geo.SectorSize }

// Capacity implements blockdev.Device.
func (k *Pblk) Capacity() int64 { return k.capacityLBAs * int64(k.geo.SectorSize) }

// ActivePUs returns the current number of active write PUs.
func (k *Pblk) ActivePUs() int { return k.cfg.ActivePUs }

// EraseUnitBytes returns the data payload of one block group — the FTL's
// reclaim granularity. Open-channel SSDs expose geometry precisely so
// flash-native applications can size their append segments to it: a
// segment that consumes exactly one group leaves the whole group invalid
// when the application erases it, and reclaim needs no data movement.
func (k *Pblk) EraseUnitBytes() int64 {
	return int64(k.dataSectors) * int64(k.geo.SectorSize)
}

// Test-only: MediaView returns the partition view the instance performs I/O
// through. Tests of other packages name a target by its view and size their
// write volume from its geometry.
func (k *Pblk) MediaView() *lightnvm.MediaView { return k.dev }

// FreeGroups returns the number of free (erased) block groups, the GC
// feedback signal.
func (k *Pblk) FreeGroups() int { return k.freeGroups }

// SetActivePUs retunes write provisioning at run time (paper §4.2.1:
// "the number of channels and PUs used for mapping incoming I/Os can be
// tuned at run-time"). Admission is paused, buffered data is flushed, the
// lane writers are quiesced, and open groups are padded and closed so the
// rebuilt lanes start on fresh blocks; queued traffic resumes against the
// new writer set afterwards.
func (k *Pblk) SetActivePUs(p *sim.Proc, n int) error {
	if n < 1 || n > k.nPUs || k.nPUs%n != 0 {
		return fmt.Errorf("pblk: invalid active PU count %d", n)
	}
	if k.stopping {
		return ErrStopped
	}
	if k.rebuilding {
		return fmt.Errorf("pblk: concurrent SetActivePUs")
	}
	if err := k.checkSpare(n); err != nil {
		return err
	}
	k.rebuilding = true
	defer func() {
		k.rebuilding = false
		k.rb.signalSpace() // resume paused producers
		k.kickWriters()
	}()
	if err := k.Flush(p); err != nil {
		return err
	}
	k.stopWriters(p)
	k.drainOpenGroups(p)
	// A write failure completing after the old writers exited parks its
	// retries on a quiesced lane; carry any such leftovers into the new
	// lane set or the ring tail wedges below them.
	old := k.slots
	k.cfg.ActivePUs = n
	k.buildSlots()
	k.startWriters()
	carry := func(q *sim.FIFO[chunk]) {
		for q.Len() > 0 {
			k.slots[0].retry.Push(q.Pop())
		}
	}
	for _, s := range old {
		carry(&s.retry)
		for st := range s.q {
			carry(&s.q[st])
		}
	}
	return nil
}

// Stop quiesces GC, flushes all buffered data, stops the lane writers and
// releases the instance's view. The device is left fully consistent for
// scan recovery but no snapshot is written; use Shutdown for a graceful
// power-down. The PUs stay reserved until Stop returns: it performs device
// I/O, and a new tenant on the range meanwhile would share its blocks.
func (k *Pblk) Stop(p *sim.Proc) error {
	defer k.dev.Release()
	return k.stop(p)
}

// stop is Stop without the release, shared with Shutdown.
func (k *Pblk) stop(p *sim.Proc) error {
	if k.stopping {
		return nil
	}
	// Quiesce the scrubber before GC: it only feeds the collector's queue,
	// so stopping it first means no new refresh victims appear while the
	// scheduler drains.
	k.scrubStopping = true
	k.scrubKick.Signal()
	p.Wait(k.scrubDone)
	// Stop GC next, while the lane writers still drain its moves; the
	// scheduler waits for every in-flight victim worker before signalling.
	k.gcStopping = true
	k.gcKick.Signal()
	p.Wait(k.gcDone)
	if err := k.Flush(p); err != nil {
		return err
	}
	k.stopping = true
	k.stopWriters(p)
	return nil
}

// Test-only: Shutdown performs a graceful power-down: flush, quiesce, pad
// and close every open block group, persist a full L2P snapshot to the
// reserved system group (paper §4.2.2, snapshot form), and release the view.
// The recovery tests mount from the snapshot it leaves; no experiment times
// a snapshot mount yet.
func (k *Pblk) Shutdown(p *sim.Proc) error {
	defer k.dev.Release()
	if err := k.stop(p); err != nil {
		return err
	}
	k.drainOpenGroups(p)
	k.quiesce(p)
	return k.writeSnapshot(p)
}

// waitStateChange parks the process until notifyState fires; callers loop,
// re-checking their condition after each wake.
func (k *Pblk) waitStateChange(p *sim.Proc) {
	k.stateEv.Rearm()
	p.Wait(k.stateEv)
}

// notifyState wakes every process blocked in waitStateChange. It is called
// on group state transitions and ring drain progress; signalling with no
// waiters is a no-op.
func (k *Pblk) notifyState() { k.stateEv.Signal() }

// quiesce waits until no group is mid-transition and the ring is empty,
// driven by state-change events rather than a polling sleep loop.
func (k *Pblk) quiesce(p *sim.Proc) {
	for {
		busy := k.rb.inRing() > 0
		for _, g := range k.groups {
			if g.state == stOpen || g.state == stGC {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		k.waitStateChange(p)
	}
}

// Crash abandons all host state without flushing, simulating power loss,
// and releases the view with it. The instance becomes unusable; create a
// new instance on the same range to exercise recovery.
func (k *Pblk) Crash() {
	k.stopping = true
	k.crashed = true
	for _, s := range k.slots {
		s.wake()
	}
	k.gcKick.Signal()
	k.scrubKick.Signal()
	k.rb.signalSpace()
	k.notifyState()
	k.dev.Crash()
}
