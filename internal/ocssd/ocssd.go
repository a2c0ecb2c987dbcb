// Package ocssd models an open-channel SSD exposing the Physical Page
// Address I/O interface (paper §3).
//
// The device is a set of channels, each with a fixed data bandwidth, wired
// to parallel units (PUs). A PU wraps one NAND die and executes a single
// command at a time; queueing behind a busy PU is what produces the paper's
// read-behind-write latency spikes. Commands are vectored: one submission
// carries up to MaxVectorLen sector addresses and completes with a separate
// status per address (§3.3).
//
// All timing is charged in virtual time against an internal/sim environment,
// so latency distributions are deterministic and hardware independent. The
// datapath is goroutine-free: each PU sub-command runs as a pooled
// continuation state machine driven directly by the scheduler (sub-command
// steps are Schedule callbacks, PU and channel waits ride
// sim.Resource.AcquireFn), so steady-state I/O costs no process spawns and
// no channel handoffs.
package ocssd

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/nand"
	"repro/internal/ppa"
	"repro/internal/sim"
)

// MaxVectorLen is the maximum number of addresses per vector command,
// bounded by the 64 completion-status bits in the NVMe completion entry.
const MaxVectorLen = 64

// Op is a PPA data command opcode.
type Op int

// Data command opcodes.
const (
	OpRead Op = iota
	OpWrite
	OpErase
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpErase:
		return "erase"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Errors reported by command validation and execution.
var (
	ErrTooManyAddrs = errors.New("ocssd: vector exceeds 64 addresses")
	ErrInvalidAddr  = errors.New("ocssd: address outside device geometry")
	ErrPartialPage  = errors.New("ocssd: write does not cover whole flash pages")
	ErrOOBSize      = errors.New("ocssd: per-sector OOB exceeds its share of the page OOB area")
	ErrEmptyVector  = errors.New("ocssd: empty address vector")
	// ErrDeviceDead is returned on every address of a command submitted to
	// a device after Fail() — the whole-device death model, reached through
	// the volume layer's Kill and its ejection of a member whose writes keep
	// failing.
	ErrDeviceDead = errors.New("ocssd: device dead")
)

// Timing parametrizes the device performance model (paper §3.2,
// characteristic 2: typical/max latency for read, write, erase and channel
// capacity).
type Timing struct {
	PageRead    time.Duration // flash array read, full page (all planes in a multi-plane op)
	PageProgram time.Duration // flash program, full page
	BlockErase  time.Duration
	ChannelMBps float64       // per-channel transfer bandwidth, decimal MB/s
	CmdOverhead time.Duration // controller/firmware cost per PU sub-command

	// ReadRetry is the additional array time per read-retry tier: each
	// threshold-voltage shift re-senses the page. Charged only when the
	// media's BER model (nand.Config) demands retry tiers, so the default
	// zero-error configuration never pays it.
	ReadRetry time.Duration

	// SuspendSlice enables erase/program suspension (paper §3.3: "the
	// erase-suspend allows reads to suspend an active write or program,
	// and thus improve its access latency, at the cost of longer write
	// and erase time"). When positive, programs and erases yield the PU
	// to queued commands every SuspendSlice of execution, paying
	// SuspendPenalty per resumption.
	SuspendSlice   time.Duration
	SuspendPenalty time.Duration
}

// DefaultTiming matches the paper's Table 1 characterization (see DESIGN.md
// for the calibration).
func DefaultTiming() Timing {
	return Timing{
		PageRead:    65 * time.Microsecond,
		PageProgram: 1100 * time.Microsecond,
		BlockErase:  3 * time.Millisecond,
		ChannelMBps: 280,
		CmdOverhead: 6 * time.Microsecond,
		ReadRetry:   25 * time.Microsecond,
	}
}

// Config assembles a device.
type Config struct {
	Geometry ppa.Geometry
	Timing   Timing
	Media    nand.Config
	// PageCache enables the controller's per-PU last-read-page buffer
	// (gives Table 1's fast sequential 4K reads).
	PageCache bool
	Seed      int64
}

// WestlakeGeometry returns the paper's CNEX Labs Westlake geometry
// (Table 1). blocksPerPlane scales capacity: 1067 is the real drive (2 TB);
// tests and benches use fewer blocks to bound host memory.
func WestlakeGeometry(blocksPerPlane int) ppa.Geometry {
	return ppa.Geometry{
		Channels:       16,
		PUsPerChannel:  8,
		PlanesPerPU:    4,
		BlocksPerPlane: blocksPerPlane,
		PagesPerBlock:  256,
		SectorsPerPage: 4,
		SectorSize:     4096,
		OOBPerPage:     64,
	}
}

// DefaultConfig returns a Westlake-like device with the given blocks per
// plane.
func DefaultConfig(blocksPerPlane int) Config {
	return Config{
		Geometry:  WestlakeGeometry(blocksPerPlane),
		Timing:    DefaultTiming(),
		Media:     nand.DefaultConfig(),
		PageCache: true,
		Seed:      1,
	}
}

// Vector is one PPA data command. The Vector and its slices must stay
// valid and unmodified until the submission's done callback runs.
type Vector struct {
	Op    Op
	Addrs []ppa.Addr
	// Data holds one sector payload per address for writes (entries may be
	// nil for synthetic workloads); it is ignored for reads and erases.
	Data [][]byte
	// OOB holds per-sector out-of-band metadata for writes; each entry is
	// limited to OOBPerPage/SectorsPerPage bytes.
	OOB [][]byte
	// Tag identifies the submitter for the optional per-PU owner guard
	// (SetPUOwner). lightnvm.MediaView stamps it with the target instance
	// name; it has no effect unless a touched PU carries an owner tag.
	Tag string
}

// Completion reports the outcome of a vector command.
type Completion struct {
	// Status has bit i set when Addrs[i] failed (paper §3.3: separate
	// completion status per address).
	Status uint64
	// Errs holds the per-address error, nil where the address succeeded.
	Errs []error
	// Data and OOB hold per-address results for reads. The slices alias the
	// media's own page and OOB memory (nand.Die.Read): read-only, and valid
	// only until the block they were read from is erased. A consumer that
	// keeps the bytes across an erase copies them out.
	Data [][]byte
	OOB  [][]byte
	// Retries is the total number of read-retry tiers the command's flash
	// reads needed (0 on healthy media). Relocate has bit i set when
	// Addrs[i] was recovered only through deep retry tiers — the device's
	// hint that the host should refresh that data soon (§4.2.3).
	Retries  int32
	Relocate uint64
	// Submitted and Done are the virtual submission/completion times.
	Submitted, Done time.Duration
}

// Failed reports whether any address failed.
func (c *Completion) Failed() bool { return c.Status != 0 }

// FirstErr returns the first per-address error, or nil.
func (c *Completion) FirstErr() error {
	for _, e := range c.Errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Stats aggregates device activity.
type Stats struct {
	Reads, Writes, Erases       int64 // vector commands
	SectorsRead, SectorsWritten int64
	FlashReads, FlashPrograms   int64 // media page ops (multi-plane counts once)
	CacheHits                   int64
	Suspensions                 int64 // program/erase suspensions granted
	ReadRetries                 int64 // read-retry tiers charged across all reads
	RelocateAdvised             int64 // addresses flagged for host relocation (deep retries)
}

// cacheEnt is one plane's last-read-page buffer slot.
type cacheEnt struct {
	key pageKey
	ok  bool
}

type punit struct {
	die  *nand.Die
	busy *sim.Resource // one command at a time (paper §3.1, invariant 1)
	// cache is the last flash page read, one slot per plane; nil when the
	// controller page buffer is disabled.
	cache []cacheEnt
	ch    int
}

type pageKey struct {
	plane, block, page int
}

type channel struct {
	xfer *sim.Resource // serializes transfers; duration models bandwidth
}

// Device is an open-channel SSD instance.
type Device struct {
	env  *sim.Env
	cfg  Config
	fmtr ppa.Format
	chs  []*channel
	pus  []*punit // indexed by global PU (ch*PUsPerChannel + pu)

	// dos pools the event+result box used by Do, so blocking wrappers
	// (recovery scans issue hundreds of thousands) allocate nothing in
	// steady state.
	dos sim.Pool[*doBox]

	// Hot-path pools: Submit splits each vector into per-PU sub-command
	// tasks; tasks, submissions and completions cycle through pools so
	// steady-state I/O allocates nothing.
	tasks   sim.Pool[*puTask]
	subs    sim.Pool[*submission]
	comps   sim.Pool[*Completion]
	taskOf  []*puTask // per-PU scratch used during one Submit call
	puOrder []int     // scratch: PUs touched by the current Submit
	// gpuOf[i] is the global PU of the current command's Addrs[i]: validate
	// decodes each address once and the PU split reads the result.
	gpuOf [MaxVectorLen]int

	// xfer[n] is the channel occupancy for moving n sectors. A transfer's
	// duration depends only on its sector count, so the float divide is paid
	// once per count at construction instead of once per transfer.
	xfer [MaxVectorLen + 1]time.Duration

	// ownerTags, when non-nil, holds a per-PU owner tag; Submit panics on
	// any vector whose Tag differs from a touched PU's tag (debug guard
	// for partition-translation bugs). nil (the default) costs one branch.
	ownerTags []string

	// dead marks a whole-device failure: every later submission completes
	// with ErrDeviceDead. deathHooks run once, in registration order, when
	// Fail flips the flag.
	dead       bool
	deathHooks []func()

	Stats Stats
}

// New builds a device in env. It panics only on invalid configuration.
func New(env *sim.Env, cfg Config) (*Device, error) {
	f, err := ppa.NewFormat(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	if cfg.Timing.ChannelMBps <= 0 {
		return nil, fmt.Errorf("ocssd: channel bandwidth must be positive")
	}
	d := &Device{env: env, cfg: cfg, fmtr: f}
	d.tasks.New = func() *puTask {
		t := &puTask{d: d}
		t.stepFn = t.step
		t.idx1[0] = t.index1[:]
		t.one[0].planes, t.one[0].idx = t.plane1[:], t.idx1[:]
		return t
	}
	d.subs.New = func() *submission { return &submission{d: d} }
	d.comps.New = func() *Completion { return new(Completion) }
	d.dos.New = func() *doBox {
		b := &doBox{ev: env.NewEvent()}
		b.fn = func(c *Completion) { b.out = c; b.ev.Signal() }
		return b
	}
	for n := range d.xfer {
		d.xfer[n] = time.Duration(float64(n*cfg.Geometry.SectorSize) / (cfg.Timing.ChannelMBps * 1e6) * float64(time.Second))
	}
	d.chs = make([]*channel, cfg.Geometry.Channels)
	for i := range d.chs {
		d.chs[i] = &channel{xfer: env.NewResource(1)}
	}
	dims := nand.Dims{
		Planes:         cfg.Geometry.PlanesPerPU,
		BlocksPerPlane: cfg.Geometry.BlocksPerPlane,
		PagesPerBlock:  cfg.Geometry.PagesPerBlock,
		SectorsPerPage: cfg.Geometry.SectorsPerPage,
		SectorSize:     cfg.Geometry.SectorSize,
		OOBPerPage:     cfg.Geometry.OOBPerPage,
	}
	d.pus = make([]*punit, cfg.Geometry.TotalPUs())
	for i := range d.pus {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		die := nand.NewDie(dims, cfg.Media, rng)
		die.SetNow(func() int64 { return int64(env.Now()) })
		d.pus[i] = &punit{
			die:  die,
			busy: env.NewResource(1),
			ch:   i / cfg.Geometry.PUsPerChannel,
		}
		if cfg.PageCache {
			d.pus[i].cache = make([]cacheEnt, cfg.Geometry.PlanesPerPU)
		}
	}
	d.taskOf = make([]*puTask, cfg.Geometry.TotalPUs())
	return d, nil
}

// Env returns the simulation environment the device runs in.
func (d *Device) Env() *sim.Env { return d.env }

// Geometry returns the device geometry (admin identify, §3.2).
func (d *Device) Geometry() ppa.Geometry { return d.cfg.Geometry }

// Format returns the device's PPA bit layout.
func (d *Device) Format() ppa.Format { return d.fmtr }

// Timing returns the device performance model parameters.
func (d *Device) Timing() Timing { return d.cfg.Timing }

// Die exposes the NAND die behind a global PU index, used by host recovery
// scans and by tests; production datapaths go through Submit.
func (d *Device) Die(globalPU int) *nand.Die { return d.pus[globalPU].die }

// PayloadBytes returns the host memory the device's dies hold in page
// buffers (nand.Die.PayloadBytes summed over all PUs).
func (d *Device) PayloadBytes() int64 {
	var n int64
	for _, pu := range d.pus {
		n += pu.die.PayloadBytes()
	}
	return n
}

// SectorOOBSize returns the per-sector share of the page OOB area, the
// maximum OOB a vector write may attach to one sector.
func (d *Device) SectorOOBSize() int {
	return d.cfg.Geometry.OOBPerPage / d.cfg.Geometry.SectorsPerPage
}

// Identify mirrors the PPA admin identify command (§3.2).
type Identify struct {
	Geometry     ppa.Geometry
	Timing       Timing
	Media        nand.Config
	MaxVectorLen int
	SectorOOB    int
}

// Identify returns the device self-description.
func (d *Device) Identify() Identify {
	return Identify{
		Geometry:     d.cfg.Geometry,
		Timing:       d.cfg.Timing,
		Media:        d.cfg.Media,
		MaxVectorLen: MaxVectorLen,
		SectorOOB:    d.SectorOOBSize(),
	}
}

func (d *Device) validate(cmd *Vector) error {
	if len(cmd.Addrs) == 0 {
		return ErrEmptyVector
	}
	if len(cmd.Addrs) > MaxVectorLen {
		return ErrTooManyAddrs
	}
	for i, a := range cmd.Addrs {
		if !d.fmtr.Valid(a) {
			return fmt.Errorf("%w: %v", ErrInvalidAddr, a)
		}
		d.gpuOf[i] = d.fmtr.GlobalPU(a)
	}
	if cmd.Op == OpWrite {
		oobMax := d.SectorOOBSize()
		for _, o := range cmd.OOB {
			if len(o) > oobMax {
				return ErrOOBSize
			}
		}
		if cmd.Data != nil && len(cmd.Data) != len(cmd.Addrs) {
			return fmt.Errorf("ocssd: %d data buffers for %d addresses", len(cmd.Data), len(cmd.Addrs))
		}
		if cmd.OOB != nil && len(cmd.OOB) != len(cmd.Addrs) {
			return fmt.Errorf("ocssd: %d oob buffers for %d addresses", len(cmd.OOB), len(cmd.Addrs))
		}
	}
	return nil
}

// SetPUOwner tags a global PU with an owner: any subsequent Submit whose
// vector touches the PU with a different (or empty) Tag panics. This is a
// debug guard — tests enable it (directly or via the lightnvm owner
// guard) so a command that escapes its partition, e.g. through a
// relative→global translation bug, fails loudly at the device boundary
// instead of silently corrupting a neighbour. An empty tag clears the PU.
func (d *Device) SetPUOwner(globalPU int, tag string) {
	if d.ownerTags == nil {
		if tag == "" {
			return
		}
		d.ownerTags = make([]string, d.cfg.Geometry.TotalPUs())
	}
	d.ownerTags[globalPU] = tag
}

// ClearPUOwner removes a PU's owner tag.
func (d *Device) ClearPUOwner(globalPU int) {
	if d.ownerTags != nil {
		d.ownerTags[globalPU] = ""
	}
}

// checkOwners enforces the per-PU owner guard on a validated command.
func (d *Device) checkOwners(cmd *Vector) {
	for i, a := range cmd.Addrs {
		gpu := d.gpuOf[i]
		if t := d.ownerTags[gpu]; t != "" && t != cmd.Tag {
			panic(fmt.Sprintf("ocssd: %v %v touches pu %d owned by %q (submitter tag %q)",
				cmd.Op, a, gpu, t, cmd.Tag))
		}
	}
}

// flashOp is one media operation: a page read/program or block erase,
// possibly spanning multiple planes (multi-plane mode), carrying the vector
// indices it serves. The planes/idx slices, inner ones included, are pooled
// with their task and reused in place.
type flashOp struct {
	block, page int
	planes      []int
	// idx[i] lists vector indices for planes[i], ordered by sector.
	idx [][]int
}

// xferTime returns the channel occupancy for moving n sectors.
func (d *Device) xferTime(n int) time.Duration { return d.xfer[n] }

// submission tracks one vector command's outstanding per-PU sub-commands
// and fires the caller's done callback when the last one finishes.
type submission struct {
	d         *Device
	remaining int
	comp      *Completion
	done      func(*Completion)
}

// finish retires one sub-command; the last one stamps the completion and
// runs the caller's callback (in simulation context, with the PU still
// held, exactly as the process-based datapath did).
func (s *submission) finish() {
	s.remaining--
	if s.remaining != 0 {
		return
	}
	d, comp, done := s.d, s.comp, s.done
	comp.Done = d.env.Now()
	s.comp, s.done = nil, nil
	d.subs.Put(s)
	done(comp)
}

// getComp returns a zeroed pooled completion sized for n addresses.
func (d *Device) getComp(n int, read bool) *Completion {
	c := d.comps.Get()
	c.Status = 0
	c.Retries, c.Relocate = 0, 0
	c.Submitted, c.Done = 0, 0
	c.Errs = resize(c.Errs, n)
	if !read {
		n = 0 // a write or erase returns no buffers, but keeps the arrays
	}
	c.Data, c.OOB = resize(c.Data, n), resize(c.OOB, n)
	return c
}

// resize returns s with length n and every slot zero, reusing its array when
// that is large enough. Only the previous length is cleared: nothing writes
// past len, so the slots beyond it are zero already — the invariant that
// keeps a pooled completion from pinning old NAND pages in the tail of its
// array, and a one-sector read from paying for the 64-sector vector that
// held the completion before it.
func resize[T any](s []T, n int) []T {
	clear(s)
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Recycle returns a completion to the device pool. Callers that fully
// consume a completion inside their done callback may recycle it so the
// next command reuses its storage; the completion and its Data and OOB
// containers must not be referenced afterwards. The page memory those
// entries point at is not the completion's: it belongs to the media and
// stays valid until its block is erased, recycled or not (pblk GC hands
// such entries to its write buffer and recycles the container at once).
// Recycling is optional: completions that escape to long-lived callers are
// simply collected by the GC.
func (d *Device) Recycle(c *Completion) {
	if c == nil {
		return
	}
	d.comps.Put(c)
}

// Submit issues a vector command asynchronously; done runs in simulation
// context when all addresses complete. Submit itself must be called from
// simulation context (a process or scheduled callback). The steady-state path spawns
// no goroutines: every PU sub-command is a pooled continuation.
func (d *Device) Submit(cmd *Vector, done func(*Completion)) {
	comp := d.getComp(len(cmd.Addrs), cmd.Op == OpRead)
	comp.Submitted = d.env.Now()
	err := d.validate(cmd)
	if err == nil && d.dead {
		err = ErrDeviceDead
	}
	if err != nil {
		for i := range comp.Errs {
			comp.Errs[i] = err
			comp.Status |= 1 << uint(i)
		}
		comp.Done = d.env.Now()
		d.env.Schedule(0, func() { done(comp) })
		return
	}
	if d.ownerTags != nil {
		d.checkOwners(cmd)
	}
	switch cmd.Op {
	case OpRead:
		d.Stats.Reads++
		d.Stats.SectorsRead += int64(len(cmd.Addrs))
	case OpWrite:
		d.Stats.Writes++
		d.Stats.SectorsWritten += int64(len(cmd.Addrs))
	case OpErase:
		d.Stats.Erases++
	}

	sub := d.subs.Get()
	sub.comp = comp
	sub.done = done
	if len(cmd.Addrs) == 1 {
		// One address is one PU: no split, and group builds its op directly.
		sub.remaining = 1
		t := d.newTask(sub, cmd, d.gpuOf[0])
		t.indices = append(t.indices, 0)
		d.post(t)
		return
	}
	// Split by PU, preserving vector order within each PU.
	for i := range cmd.Addrs {
		gpu := d.gpuOf[i]
		t := d.taskOf[gpu]
		if t == nil {
			t = d.newTask(sub, cmd, gpu)
			d.taskOf[gpu] = t
			d.puOrder = append(d.puOrder, gpu)
		}
		t.indices = append(t.indices, i)
	}
	sub.remaining = len(d.puOrder)
	for _, gpu := range d.puOrder {
		d.post(d.taskOf[gpu])
		d.taskOf[gpu] = nil
	}
	d.puOrder = d.puOrder[:0]
}

// post starts a task with a zero-delay event: the submit hop. It stays an
// event — seq is handed out at push time, and same-instant ties decide which
// task gets a channel (DESIGN.md §"Device timing").
func (d *Device) post(t *puTask) {
	d.env.ScheduleArg(0, taskStep, t)
}

// taskStep is the long-lived trampoline a task rides across ScheduleArg hops,
// so no per-hop closure is allocated. It is every sleep's wake-up as well,
// which is why it is a declared function: step reaches it again through sleep.
func taskStep(a any) { a.(*puTask).step() }

// doBox is the pooled event+result pair behind Do; its callback is bound
// once so repeated blocking submissions allocate nothing.
type doBox struct {
	ev  *sim.Event
	out *Completion
	fn  func(*Completion)
}

// Do submits cmd and blocks the calling process until completion.
func (d *Device) Do(p *sim.Proc, cmd *Vector) *Completion {
	b := d.dos.Get()
	d.Submit(cmd, b.fn)
	p.Wait(b.ev)
	out := b.out
	b.out = nil
	b.ev.Reset()
	d.dos.Put(b)
	return out
}

// fail records a per-address failure.
func (t *puTask) fail(idx int, err error) {
	comp := t.sub.comp
	comp.Errs[idx] = err
	comp.Status |= 1 << uint(idx)
}

// puTask states. The machine transcribes the old process-based runSub
// step for step: every Sleep became a Schedule, every Resource.Acquire a
// TryAcquire/AcquireFn pair, so the event-queue footprint (and with it
// the deterministic trace) is unchanged.
const (
	tsBegin         = iota // wait for the PU, then charge command overhead
	tsOverhead             // PU held: charge command overhead
	tsGrouped              // overhead charged: group into flash ops, branch per opcode
	tsRead                 // start the next read op, or finish
	tsReadCollect          // flash array latency charged: gather data, start transfer
	tsReadRetry            // retry-tier latency charged: start transfer or next op
	tsReadXfer             // channel held: charge transfer time
	tsReadXferDone         // transfer done: release channel, next op
	tsWrite                // start the next write op, or finish
	tsWriteXfer            // channel held: charge transfer time
	tsWriteXferDone        // release channel, start program occupancy
	tsWriteProgram         // occupancy charged: commit to media, next op
	tsErase                // start the next erase op, or finish
	tsEraseDone            // occupancy charged: commit erase, next op
	tsOccWake              // occupancy slice elapsed: maybe suspend, continue
	tsOccReacquired        // PU reacquired after a suspension
	tsOccNext              // schedule the next occupancy slice, or finish
)

// puTask is one PU's share of a vector command, executed as a continuation
// state machine. Tasks, their index scratch and their flash-op grouping
// are pooled on the device; a steady-state sub-command allocates nothing.
type puTask struct {
	// What a one-address read touches comes first, so that it stays within
	// the task's first few cache lines.
	d     *Device
	sub   *submission
	pu    *punit
	ch    *channel
	cmd   *Vector
	state int
	opi   int       // current op index
	xfer  int       // sectors the current phase moves over the channel
	hit   bool      // current read op was served from the page buffer
	ops   []flashOp // grouped media operations
	// one is the op of a one-address command, built in place over the three
	// arrays below (wired together once, by the device's task pool) instead
	// of in the pooled storage opsBuf, which the general grouping reuses from
	// command to command.
	one    [1]flashOp
	plane1 [1]int
	idx1   [1][]int
	index1 [1]int
	opsBuf []flashOp
	// indices are the vector indices served by this PU, in vector order.
	indices []int

	// Occupancy (program/erase) sub-machine: remaining media time, the
	// slice just slept, and the state to enter when fully charged.
	occRemaining time.Duration
	occStep      time.Duration
	afterOcc     int

	stepFn func() // == step, bound once so parking on a resource never allocates
}

// newTask returns a pooled task set up to run cmd's share on global PU gpu.
func (d *Device) newTask(sub *submission, cmd *Vector, gpu int) *puTask {
	t := d.tasks.Get()
	t.sub = sub
	t.pu = d.pus[gpu]
	t.ch = d.chs[t.pu.ch]
	t.cmd = cmd
	t.state = tsBegin
	return t
}

// putTask recycles a finished task.
func (d *Device) putTask(t *puTask) {
	t.ops = nil
	t.indices = t.indices[:0]
	t.sub = nil
	t.pu = nil
	t.ch = nil
	t.cmd = nil
	d.tasks.Put(t)
}

// group turns the task's share of the vector into flash ops. Writes must
// cover whole pages; reads may touch any subset of a page's sectors. Sectors
// of the same (block, page) across planes merge into one multi-plane op. Ops
// appear in first-seen order, planes within an op in first-seen order,
// indices in vector order.
func (t *puTask) group() error {
	g := t.d.cfg.Geometry
	cmd := t.cmd
	if len(cmd.Addrs) == 1 {
		a := &cmd.Addrs[0]
		t.one[0].block, t.one[0].page = a.Block, a.Page
		t.plane1[0] = a.Plane // index1[0] is 0 for good: the command's only index
		t.ops = t.one[:]
		if cmd.Op == OpWrite && g.SectorsPerPage != 1 {
			return partialPage(a.Block, a.Page, 1, g.SectorsPerPage)
		}
		return nil
	}
	// Entries of opsBuf past its length, and of an entry's planes and idx
	// past theirs, are earlier commands' and are reused in place, so the
	// array grows to the largest vector seen and then stays. A slot is
	// sized for the geometry when first used (newOp).
	ops := t.opsBuf[:0]
	for _, i := range t.indices {
		a := &cmd.Addrs[i]
		oi := 0
		for oi < len(ops) && (ops[oi].block != a.Block || ops[oi].page != a.Page) {
			oi++
		}
		if oi == len(ops) {
			if oi == cap(ops) {
				ops = append(ops, flashOp{})
			}
			ops = ops[:oi+1]
			if ops[oi].idx == nil {
				ops[oi] = newOp(g)
			}
			ops[oi].block, ops[oi].page = a.Block, a.Page
			ops[oi].planes, ops[oi].idx = ops[oi].planes[:0], ops[oi].idx[:0]
		}
		op := &ops[oi]
		pi := 0
		for pi < len(op.planes) && op.planes[pi] != a.Plane {
			pi++
		}
		if pi == len(op.planes) {
			op.planes = append(op.planes, a.Plane)
			op.idx = op.idx[:pi+1]
			op.idx[pi] = op.idx[pi][:0]
		}
		op.idx[pi] = append(op.idx[pi], i)
	}
	t.opsBuf, t.ops = ops, ops
	if cmd.Op == OpWrite {
		for oi := range ops {
			for pi := range ops[oi].idx {
				if n := len(ops[oi].idx[pi]); n != g.SectorsPerPage {
					return partialPage(ops[oi].block, ops[oi].page, n, g.SectorsPerPage)
				}
			}
		}
	}
	return nil
}

// newOp returns a grouping slot with room for every plane of g and a page
// of sectors on each, so reusing it for any later command allocates nothing.
func newOp(g ppa.Geometry) flashOp {
	sectors := make([]int, g.PlanesPerPU*g.SectorsPerPage)
	idx := make([][]int, g.PlanesPerPU)
	for pi := range idx {
		idx[pi] = sectors[pi*g.SectorsPerPage : pi*g.SectorsPerPage : (pi+1)*g.SectorsPerPage]
	}
	return flashOp{planes: make([]int, 0, g.PlanesPerPU), idx: idx}
}

func partialPage(block, page, have, want int) error {
	return fmt.Errorf("%w: block %d page %d has %d of %d sectors", ErrPartialPage, block, page, have, want)
}

// maxWear returns the op's wear-latency multiplier across its planes.
func (t *puTask) maxWear(op *flashOp) float64 {
	wear := 1.0
	for _, plane := range op.planes {
		if w := t.pu.die.WearFactor(plane, op.block); w > wear {
			wear = w
		}
	}
	return wear
}

// acquire takes res for the machine: on success the task advances to next
// synchronously; when contended it parks in the resource's FIFO and step
// resumes in state next when ownership transfers. Reports whether the
// caller should keep stepping.
func (t *puTask) acquire(res *sim.Resource, next int) bool {
	t.state = next
	if res.TryAcquire() {
		return true
	}
	res.AcquireFn(t.stepFn)
	return false
}

// sleep charges d of virtual time and re-enters step in state next.
func (t *puTask) sleep(d time.Duration, next int) {
	t.state = next
	t.d.env.ScheduleArg(d, taskStep, t)
}

// finishRelease retires the sub-command: the completion accounting (and the
// caller's done callback, when this is the last PU) runs while the PU is
// still held, then the PU frees and the task recycles.
func (t *puTask) finishRelease() {
	t.sub.finish()
	t.pu.busy.Release()
	t.d.putTask(t)
}

// startOccupy charges a long flash operation against the PU. With
// suspension enabled, the operation runs in slices and yields the PU to
// queued commands (typically reads) between slices, resuming with a
// penalty. Continues in state after once fully charged.
func (t *puTask) startOccupy(total time.Duration, after int) {
	slice := t.d.cfg.Timing.SuspendSlice
	if slice <= 0 || total <= slice {
		t.sleep(total, after)
		return
	}
	t.afterOcc = after
	t.occRemaining = total
	t.occStep = slice
	t.sleep(slice, tsOccWake)
}

// step runs the task's state machine until it blocks (on time or a
// resource) or terminates. It always executes in simulation context.
func (t *puTask) step() {
	d := t.d
	for {
		switch t.state {
		case tsBegin:
			if !t.acquire(t.pu.busy, tsOverhead) {
				return
			}
			continue

		case tsOverhead:
			t.sleep(d.cfg.Timing.CmdOverhead, tsGrouped)
			return

		case tsGrouped:
			if err := t.group(); err != nil {
				for _, i := range t.indices {
					t.fail(i, err)
				}
				t.finishRelease()
				return
			}
			t.opi = 0
			switch t.cmd.Op {
			case OpRead:
				t.state = tsRead
			case OpWrite:
				t.state = tsWrite
			case OpErase:
				t.state = tsErase
			}
			continue

		case tsRead:
			if t.opi >= len(t.ops) {
				t.finishRelease()
				return
			}
			op := &t.ops[t.opi]
			// One flash array read covers all planes of a multi-plane op;
			// the controller page buffer can satisfy it without touching
			// the array.
			hit := t.pu.cache != nil
			if hit {
				for _, plane := range op.planes {
					ent := &t.pu.cache[plane]
					if !ent.ok || ent.key != (pageKey{plane, op.block, op.page}) {
						hit = false
						break
					}
				}
			}
			t.hit = hit
			if hit {
				d.Stats.CacheHits++
				t.state = tsReadCollect
				continue
			}
			t.sleep(time.Duration(float64(d.cfg.Timing.PageRead)*t.maxWear(op)), tsReadCollect)
			return

		case tsReadCollect:
			if !t.hit {
				d.Stats.FlashReads++
			}
			op := &t.ops[t.opi]
			comp := t.sub.comp
			sectors := 0
			opRetries := 0
			for pi, plane := range op.planes {
				data, oob, retries, err := t.pu.die.ReadRetry(plane, op.block, op.page)
				opRetries += retries
				if err == nil && retries > d.cfg.Media.ReadRetryTiers/2 && retries > 0 {
					// Deep-tier recovery: advise the host to relocate this
					// data before the next tier runs out.
					for _, i := range op.idx[pi] {
						comp.Relocate |= 1 << uint(i)
						d.Stats.RelocateAdvised++
					}
				}
				for _, i := range op.idx[pi] {
					if err != nil {
						t.fail(i, err)
						continue
					}
					sec := t.cmd.Addrs[i].Sector
					ss := d.cfg.Geometry.SectorSize
					if data != nil {
						comp.Data[i] = data[sec*ss : (sec+1)*ss]
					}
					comp.OOB[i] = sliceOOB(oob, sec, d.SectorOOBSize())
					sectors++
				}
				if err == nil && t.pu.cache != nil {
					t.pu.cache[plane] = cacheEnt{key: pageKey{plane, op.block, op.page}, ok: true}
				}
			}
			t.xfer = sectors
			if opRetries > 0 {
				d.Stats.ReadRetries += int64(opRetries)
				comp.Retries += int32(opRetries)
				// Each retry tier re-senses the flash array at a shifted
				// threshold voltage: extra array occupancy per tier.
				if rr := d.cfg.Timing.ReadRetry; rr > 0 {
					t.sleep(time.Duration(opRetries)*rr, tsReadRetry)
					return
				}
			}
			t.state = tsReadRetry
			continue

		case tsReadRetry:
			if t.xfer > 0 {
				if !t.acquire(t.ch.xfer, tsReadXfer) {
					return
				}
				continue
			}
			t.opi++
			t.state = tsRead
			continue

		case tsReadXfer:
			t.sleep(d.xferTime(t.xfer), tsReadXferDone)
			return

		case tsReadXferDone:
			t.ch.xfer.Release()
			t.opi++
			t.state = tsRead
			continue

		case tsWrite:
			if t.opi >= len(t.ops) {
				t.finishRelease()
				return
			}
			// Transfer to the device, then program.
			op := &t.ops[t.opi]
			t.xfer = 0
			for _, idxs := range op.idx {
				t.xfer += len(idxs)
			}
			if !t.acquire(t.ch.xfer, tsWriteXfer) {
				return
			}
			continue

		case tsWriteXfer:
			t.sleep(d.xferTime(t.xfer), tsWriteXferDone)
			return

		case tsWriteXferDone:
			t.ch.xfer.Release()
			op := &t.ops[t.opi]
			t.startOccupy(time.Duration(float64(d.cfg.Timing.PageProgram)*t.maxWear(op)), tsWriteProgram)
			return

		case tsWriteProgram:
			d.Stats.FlashPrograms++
			t.commitProgram(&t.ops[t.opi])
			t.opi++
			t.state = tsWrite
			continue

		case tsErase:
			if t.opi >= len(t.ops) {
				t.finishRelease()
				return
			}
			op := &t.ops[t.opi]
			t.startOccupy(time.Duration(float64(d.cfg.Timing.BlockErase)*t.maxWear(op)), tsEraseDone)
			return

		case tsEraseDone:
			t.commitErase(&t.ops[t.opi])
			t.opi++
			t.state = tsErase
			continue

		case tsOccWake:
			t.occRemaining -= t.occStep
			if t.occRemaining > 0 && t.pu.busy.QueueLen() > 0 {
				// Suspend: let queued commands run, then resume.
				t.pu.busy.Release()
				if !t.acquire(t.pu.busy, tsOccReacquired) {
					return
				}
				continue
			}
			t.state = tsOccNext
			continue

		case tsOccReacquired:
			t.occRemaining += d.cfg.Timing.SuspendPenalty
			d.Stats.Suspensions++
			t.state = tsOccNext
			continue

		case tsOccNext:
			if t.occRemaining > 0 {
				step := d.cfg.Timing.SuspendSlice
				if t.occRemaining < step {
					step = t.occRemaining
				}
				t.occStep = step
				t.sleep(step, tsOccWake)
				return
			}
			t.state = t.afterOcc
			continue
		}
	}
}

// commitProgram applies one program op to the NAND media and records
// per-address status; timing was already charged by the occupancy machine.
// Sectors are copied once, straight into the page the die hands out. That
// page is recycled memory, so every byte of it is written here: zeros for
// nil or short sector payloads and for sectors the vector did not name.
func (t *puTask) commitProgram(op *flashOp) {
	d, cmd, pu := t.d, t.cmd, t.pu
	g := d.cfg.Geometry
	ss, per := g.SectorSize, d.SectorOOBSize()
	for pi, plane := range op.planes {
		idx := op.idx[pi]
		withData, withOOB := false, false
		for _, i := range idx {
			withData = withData || (cmd.Data != nil && cmd.Data[i] != nil)
			withOOB = withOOB || (cmd.OOB != nil && len(cmd.OOB[i]) > 0)
		}
		page, oob, err := pu.die.ProgramPage(plane, op.block, op.page, withData, withOOB)
		if page != nil {
			var filled uint64
			for _, i := range idx {
				sec := cmd.Addrs[i].Sector
				dst := page[sec*ss : (sec+1)*ss]
				clear(dst[copy(dst, cmd.Data[i]):])
				filled |= 1 << uint(sec)
			}
			for sec := 0; sec < g.SectorsPerPage; sec++ {
				if filled&(1<<uint(sec)) == 0 {
					clear(page[sec*ss : (sec+1)*ss])
				}
			}
		}
		if oob != nil {
			clear(oob)
			for _, i := range idx {
				copy(oob[cmd.Addrs[i].Sector*per:], cmd.OOB[i])
			}
		}
		if err != nil {
			for _, i := range idx {
				t.fail(i, err)
			}
		}
		if pu.cache != nil {
			// Programming invalidates the read buffer for this plane.
			pu.cache[plane].ok = false
		}
	}
}

// commitErase applies one erase op to the NAND media.
func (t *puTask) commitErase(op *flashOp) {
	pu := t.pu
	for pi, plane := range op.planes {
		err := pu.die.Erase(plane, op.block)
		for _, i := range op.idx[pi] {
			if err != nil {
				t.fail(i, err)
			}
		}
		if pu.cache != nil {
			pu.cache[plane].ok = false
		}
	}
}

func sliceOOB(pageOOB []byte, sector, per int) []byte {
	lo := sector * per
	hi := lo + per
	if lo >= len(pageOOB) {
		return nil
	}
	if hi > len(pageOOB) {
		hi = len(pageOOB)
	}
	return pageOOB[lo:hi]
}

// Fail marks the device dead — the whole-device failure model (controller
// death, power domain loss, hot unplug). Every submission from then on
// completes with ErrDeviceDead on all addresses; commands already executing
// inside the device run to completion, like responses still on the wire
// when the device drops off the bus. Registered death hooks fire once, in
// registration order. Fail must be called from simulation context; calling
// it on a dead device is a no-op.
func (d *Device) Fail() {
	if d.dead {
		return
	}
	d.dead = true
	hooks := d.deathHooks
	d.deathHooks = nil
	for _, fn := range hooks {
		fn()
	}
}

// Dead reports whether the device has failed.
func (d *Device) Dead() bool { return d.dead }

// OnDeath registers fn to run when the device fails. If the device is
// already dead, fn runs synchronously. The volume layer uses this to flip
// members into degraded mode and trigger hot-spare rebuilds.
func (d *Device) OnDeath(fn func()) {
	if d.dead {
		fn()
		return
	}
	d.deathHooks = append(d.deathHooks, fn)
}

// dropCache invalidates a PU's volatile page cache.
func (pu *punit) dropCache() {
	for i := range pu.cache {
		pu.cache[i].ok = false
	}
}

// Crash simulates power loss: volatile controller state (the page caches)
// is lost; media content persists. The host must run recovery before reuse.
func (d *Device) Crash() {
	for _, pu := range d.pus {
		pu.dropCache()
	}
}

// CrashPUs drops the volatile controller state (page caches) of the
// global PU range [begin, end) only, the partition-scoped form of Crash
// used when one tenant of a shared device power-fails its view.
func (d *Device) CrashPUs(begin, end int) {
	for gpu := begin; gpu < end && gpu < len(d.pus); gpu++ {
		d.pus[gpu].dropCache()
	}
}
