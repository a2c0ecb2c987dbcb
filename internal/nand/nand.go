// Package nand models NAND flash media at the die level (paper §2.1).
//
// A Die holds planes of blocks of pages of sectors plus per-page
// out-of-band (OOB) bytes, and enforces the three fundamental programming
// constraints: whole-page programs, sequential programs within a block, and
// erase-before-rewrite. It also models program/erase wear, bad blocks, and
// injectable failure modes (§2.2). Pages are unpaired: a page's charge
// depends on its own program only (DESIGN.md §"Media model: unpaired pages").
//
// Timing is not modelled here; the device model (internal/ocssd) charges
// virtual time for operations and uses Die.WearFactor to age access times.
package nand

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/sim"
)

// Errors returned by media operations. Device-level code distinguishes them
// to drive the paper's error-handling paths (§4.2.3).
var (
	ErrBadBlock      = errors.New("nand: block is marked bad")
	ErrNonSequential = errors.New("nand: program must be sequential within block")
	ErrNotErased     = errors.New("nand: program to non-erased page")
	ErrWriteFail     = errors.New("nand: program failed")
	ErrEraseFail     = errors.New("nand: erase failed")
	ErrReadFail      = errors.New("nand: uncorrectable read (ECC exhausted)")
	ErrUnwritten     = errors.New("nand: read of unwritten page")
	ErrWornOut       = errors.New("nand: block exceeded program/erase cycle limit")
	ErrOOBTooLarge   = errors.New("nand: oob larger than page OOB area")
)

// Dims gives the media dimensions of one die.
type Dims struct {
	Planes         int
	BlocksPerPlane int
	PagesPerBlock  int
	SectorsPerPage int
	SectorSize     int
	OOBPerPage     int
}

// PageBytes returns the page payload size.
func (d Dims) PageBytes() int { return d.SectorsPerPage * d.SectorSize }

// Config controls media behaviour beyond the geometry.
type Config struct {
	// PECycleLimit is the number of program/erase cycles a block endures
	// before erases start failing (MLC is ~3000; paper §2.1).
	PECycleLimit int
	// WriteFailProb is the probability a program fails (block must then be
	// recovered and retired by the host, §4.2.3).
	WriteFailProb float64
	// EraseFailProb is the probability an erase fails (block marked bad).
	EraseFailProb float64
	// ReadFailProb is the probability a read is uncorrectable after the
	// device exhausted ECC and threshold tuning.
	ReadFailProb float64
	// InitialBadBlockProb marks factory bad blocks.
	InitialBadBlockProb float64
	// WearLatencyFactor scales access latency as blocks age: factor =
	// 1 + WearLatencyFactor * pe/PECycleLimit (paper §2.3, lesson 4).
	WearLatencyFactor float64

	// ---- Raw bit-error-rate model (all zero = off, media never degrades
	// beyond the injected coin flips above). The raw BER of a page is
	//
	//   rawBER = BERWearCoeff      * (pe/PECycleLimit)^2
	//          + BERRetentionCoeff * retentionSeconds * RetentionAccel
	//          + BERDisturbCoeff   * blockReadsSinceErase
	//
	// deterministic in the die state — no random draws — so enabling the
	// model perturbs nothing else and stays byte-identical across engines.

	// BERWearCoeff scales the P/E-cycle wear term (quadratic in the
	// consumed fraction of PECycleLimit).
	BERWearCoeff float64
	// BERRetentionCoeff scales the charge-leak term, per second of virtual
	// time since the block was first programmed after its last erase.
	BERRetentionCoeff float64
	// RetentionAccel multiplies the retention clock (bake-oven style
	// acceleration so lifetime experiments age retention in simulated
	// milliseconds instead of months). 0 disables the retention term.
	RetentionAccel float64
	// BERDisturbCoeff scales the read-disturb term, per read issued to the
	// block since its last erase.
	BERDisturbCoeff float64

	// ---- ECC and read-retry (§2.2: the device retries reads at shifted
	// threshold voltages before declaring an uncorrectable error).

	// ECCBER is the raw BER the sector ECC corrects with zero retries.
	ECCBER float64
	// ReadRetryStep is the additional raw BER each retry tier recovers;
	// a read needs ceil((rawBER-ECCBER)/ReadRetryStep) tiers.
	ReadRetryStep float64
	// ReadRetryTiers is the number of retry tiers available before the
	// read fails with ErrReadFail.
	ReadRetryTiers int

	// GrownBadProb scales the chance an erase grows a bad block as wear
	// accumulates: p = GrownBadProb * (pe/PECycleLimit)^4, so young blocks
	// almost never fail and blocks near end of life fail often (§2.2).
	GrownBadProb float64
}

// DefaultConfig returns an MLC-like configuration matching the paper's
// evaluation device.
func DefaultConfig() Config {
	return Config{
		PECycleLimit:      3000,
		WriteFailProb:     0,
		EraseFailProb:     0,
		ReadFailProb:      0,
		WearLatencyFactor: 0.3,
	}
}

// Per-page state is bits, one a page for each kind below, in a slab the die
// keeps beside its block headers. A table indexed by page (block.pages,
// block.oobLen) exists only for pages that own something, and reads and
// programs go to it only when a bit sends them: a table entry is a cache line
// no other page shares, and on a device filled by pblk nearly every page is
// payload-less with a full OOB area (DESIGN.md §"Host memory").
const (
	hasData   = iota // the page owns a payload buffer, block.pages[page]
	fullOOB          // programmed with exactly OOBPerPage bytes of OOB
	corrupt          // charge destroyed by the page's own failed program
	pageKinds        // state words per 64 pages
)

// pageBits is the per-page state of one block: word pageKinds*(page/64)+kind
// holds that kind's bit for 64 consecutive pages, so the bits of one page sit
// in adjacent words, one cache line for a read or a program to visit.
type pageBits []uint64

func (s pageBits) has(kind, page int) bool { return s[pageKinds*(page>>6)+kind]>>(page&63)&1 != 0 }
func (s pageBits) set(kind, page int)      { s[pageKinds*(page>>6)+kind] |= 1 << (page & 63) }
func (s pageBits) unset(kind, page int)    { s[pageKinds*(page>>6)+kind] &^= 1 << (page & 63) }

type block struct {
	// The fields down to oob are what every read and program consults; they
	// lead the struct so that they share a cache line.
	writePtr int // pages [0, writePtr) are programmed
	pe       int
	// reads counts page reads since the last erase (read disturb); programNS
	// is the virtual time the block was first programmed after its last
	// erase (retention clock origin).
	reads     int
	programNS int64
	bad       bool
	// oob is the block's OOB arena (OOBPerPage per page, allocated on first
	// use and rewritten in place across erase cycles). A fullOOB page owns
	// its whole area: a read slices the arena and loads nothing from it.
	oob []byte
	// pages[i] is the payload buffer of a hasData page i, nil for any other.
	// The table is allocated the first time the block holds bytes and kept
	// across erases; the buffers come from the die's free list and return to
	// it on Erase, so anyone holding a slice Read handed out may use it only
	// until the block is erased.
	pages [][]byte
	// oobLen[i] is the number of OOB bytes a page that is not fullOOB was
	// programmed with, 0 for none. Only a block that was ever programmed
	// with a shorter OOB than the area (direct Program callers) has the table.
	oobLen []uint16
}

// Die is one NAND die: the unit of parallelism (one I/O at a time).
type Die struct {
	dims Dims
	cfg  Config
	rng  *rand.Rand
	// blocks holds block b of plane p at i = p*BlocksPerPlane+b; its per-page
	// state is state[i*stateWords : (i+1)*stateWords]. The two are found from
	// the address alone, so neither load waits for the other.
	blocks     []block
	state      pageBits
	stateWords int
	// nowFn, when set, supplies virtual time for the retention clock (the
	// device model wires it to its simulation environment).
	nowFn func() int64

	// free holds the page buffers erased blocks gave back; held counts the
	// buffers blocks currently own.
	free sim.Pool[[]byte]
	held int

	// Stats counts media operations for utilization reporting.
	Stats Stats
}

// Stats counts raw media operations executed by a die.
type Stats struct {
	PageReads    int64
	PagePrograms int64
	BlockErases  int64
	ReadFails    int64
	ProgramFails int64
	EraseFails   int64
	// ReadRetries totals retry tiers charged across all reads; GrownBad
	// counts blocks that failed an erase through the wear-driven grown-bad
	// model.
	ReadRetries int64
	GrownBad    int64
}

// NewDie builds a die with the given dimensions and behaviour. The rng seeds
// failure injection and must not be shared across goroutines.
func NewDie(dims Dims, cfg Config, rng *rand.Rand) *Die {
	d := &Die{dims: dims, cfg: cfg, rng: rng}
	d.free.New = func() []byte { return make([]byte, dims.PageBytes()) }
	d.blocks = make([]block, dims.Planes*dims.BlocksPerPlane)
	d.stateWords = pageKinds * ((dims.PagesPerBlock + 63) / 64)
	d.state = make(pageBits, len(d.blocks)*d.stateWords)
	if cfg.InitialBadBlockProb > 0 {
		for i := range d.blocks {
			if rng.Float64() < cfg.InitialBadBlockProb {
				d.blocks[i].bad = true
			}
		}
	}
	return d
}

// Dims returns the die dimensions.
func (d *Die) Dims() Dims { return d.dims }

// SetNow installs the virtual-time source for the retention clock. Without
// it (or with RetentionAccel = 0) the retention BER term is disabled.
func (d *Die) SetNow(fn func() int64) { d.nowFn = fn }

func (d *Die) blk(plane, blockIdx int) (*block, pageBits, error) {
	if plane < 0 || plane >= d.dims.Planes || blockIdx < 0 || blockIdx >= d.dims.BlocksPerPlane {
		return nil, nil, fmt.Errorf("nand: address out of range plane=%d block=%d", plane, blockIdx)
	}
	i := plane*d.dims.BlocksPerPlane + blockIdx
	return &d.blocks[i], d.state[i*d.stateWords : (i+1)*d.stateWords], nil
}

// recycle returns a block-owned page buffer to the free list.
func (d *Die) recycle(buf []byte) {
	if poisonOnRecycle {
		poison(buf)
	}
	d.held--
	d.free.Put(buf)
}

// poison overwrites a buffer whose content is no longer valid, so a reader
// still aliasing it sees a payload mismatch instead of plausible old bytes.
func poison(buf []byte) {
	if len(buf) == 0 {
		return
	}
	// Doubling copies, not a byte loop: the race detector, the only build
	// that poisons, instruments every single-byte store.
	buf[0] = 0xDB
	for n := 1; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// retire marks a block bad and drops its payload to the Go collector.
// Nothing is recycled: a reader may still alias the pages of a block that
// went bad under it, and reads of a bad block fail anyway.
func (d *Die) retire(b *block, st pageBits) {
	b.bad = true
	for w := hasData; w < len(st); w += pageKinds {
		d.held -= bits.OnesCount64(st[w])
	}
	clear(st)
	b.pages, b.oob, b.oobLen = nil, nil, nil
}

// PayloadBytes returns the host memory the die holds in page buffers: the
// ones programmed blocks own plus the free list. OOB arenas and the per-block
// tables are not counted.
func (d *Die) PayloadBytes() int64 {
	return int64(d.held+d.free.Len()) * int64(d.dims.PageBytes())
}

// Program writes one full page (payload data plus oob) at the given address.
// data may be nil for synthetic workloads (reads then return zeros). The
// sequential-in-block and erase-before-write constraints are enforced.
// A failed program leaves the page unreadable and the write pointer advanced,
// matching real media where the block content is suspect after failure.
func (d *Die) Program(plane, blockIdx, page int, data, oob []byte) error {
	dataLen := len(data)
	if data == nil {
		dataLen = -1
	}
	dst, oobDst, err := d.program(plane, blockIdx, page, dataLen, len(oob))
	copy(dst, data)
	copy(oobDst, oob)
	return err
}

// ProgramPage is Program for a caller that assembles the page in place: it
// returns the page's own payload buffer (nil unless withData) and its full
// OOB area (nil unless withOOB) instead of copying from caller buffers. Both
// are recycled memory holding stale bytes; the caller must overwrite every
// byte of them before the die is used again.
func (d *Die) ProgramPage(plane, blockIdx, page int, withData, withOOB bool) (data, oob []byte, err error) {
	dataLen, oobLen := -1, 0
	if withData {
		dataLen = d.dims.PageBytes()
	}
	if withOOB {
		oobLen = d.dims.OOBPerPage
	}
	return d.program(plane, blockIdx, page, dataLen, oobLen)
}

// program checks and commits one page program and returns where its payload
// (dataLen bytes, -1 for none) and OOB (oobLen bytes, 0 for none) are stored.
func (d *Die) program(plane, blockIdx, page, dataLen, oobLen int) (data, oob []byte, err error) {
	b, st, err := d.blk(plane, blockIdx)
	if err != nil {
		return nil, nil, err
	}
	if b.bad {
		return nil, nil, ErrBadBlock
	}
	if page < b.writePtr {
		return nil, nil, ErrNotErased
	}
	if page != b.writePtr {
		return nil, nil, ErrNonSequential
	}
	pb := d.dims.PageBytes()
	if dataLen >= 0 && dataLen != pb {
		return nil, nil, fmt.Errorf("nand: program payload %dB, want full page %dB", dataLen, pb)
	}
	if oobLen > d.dims.OOBPerPage {
		return nil, nil, ErrOOBTooLarge
	}
	d.Stats.PagePrograms++
	if b.writePtr == 0 && d.nowFn != nil {
		b.programNS = d.nowFn()
	}
	b.writePtr++
	if d.cfg.WriteFailProb > 0 && d.rng.Float64() < d.cfg.WriteFailProb {
		d.Stats.ProgramFails++
		// The failed page holds no payload yet; its content is lost and
		// reads of it fail uncorrectably.
		st.set(corrupt, page)
		return nil, nil, ErrWriteFail
	}
	if dataLen >= 0 {
		if b.pages == nil {
			b.pages = make([][]byte, d.dims.PagesPerBlock)
		}
		data = d.free.Get()
		d.held++
		b.pages[page] = data
		st.set(hasData, page)
	}
	if oobLen > 0 {
		ob := d.dims.OOBPerPage
		if b.oob == nil {
			b.oob = make([]byte, ob*d.dims.PagesPerBlock)
		}
		if oobLen == ob {
			st.set(fullOOB, page)
		} else {
			if b.oobLen == nil {
				b.oobLen = make([]uint16, d.dims.PagesPerBlock)
			}
			b.oobLen[page] = uint16(oobLen)
		}
		oob = b.oob[page*ob : page*ob+oobLen]
	}
	return data, oob, nil
}

// Read returns the payload and OOB of a programmed page. Unwritten pages
// return ErrUnwritten.
// The returned slices are the stored pages themselves: they must be treated
// as read-only and are valid only until the block is erased, which hands the
// payload buffer to the next program on this die and lets the OOB area be
// rewritten in place. A reader that needs the bytes longer copies them out.
// Pages programmed with an unspecified (nil) payload return nil data;
// readers treat that as zeros. What a page owns is recorded in the die's
// per-page state bits (pageBits), not by a nil or zero table entry.
func (d *Die) Read(plane, blockIdx, page int) (data, oob []byte, err error) {
	data, oob, _, err = d.ReadRetry(plane, blockIdx, page)
	return data, oob, err
}

// ReadRetry is Read plus the tiered read-retry model: it additionally
// reports how many retry tiers (threshold-voltage shifts) the device needed
// to correct the page's raw bit-error rate. retries is 0 while the raw BER
// sits within plain ECC reach and grows as wear, retention, and read
// disturb push it up; once the required tier count exceeds
// Config.ReadRetryTiers the read is uncorrectable (ErrReadFail). The device
// model charges extra latency per tier and flags deep-tier reads for host
// relocation.
//
// On the host a read visits the block header and one line of state bits. It
// indexes block.pages only for a hasData page and block.oobLen only for a page
// programmed with a short OOB; a fullOOB page's area is sliced, not loaded.
func (d *Die) ReadRetry(plane, blockIdx, page int) (data, oob []byte, retries int, err error) {
	b, st, err := d.blk(plane, blockIdx)
	if err != nil {
		return nil, nil, 0, err
	}
	if page < 0 || page >= d.dims.PagesPerBlock {
		return nil, nil, 0, fmt.Errorf("nand: page %d out of range", page)
	}
	if b.bad {
		return nil, nil, 0, ErrBadBlock
	}
	if page >= b.writePtr {
		return nil, nil, 0, ErrUnwritten
	}
	d.Stats.PageReads++
	b.reads++
	if d.cfg.ReadFailProb > 0 && d.rng.Float64() < d.cfg.ReadFailProb {
		d.Stats.ReadFails++
		return nil, nil, 0, ErrReadFail
	}
	if st.has(corrupt, page) {
		d.Stats.ReadFails++
		return nil, nil, 0, ErrReadFail
	}
	if raw := d.rawBER(b); raw > d.cfg.ECCBER {
		need := d.cfg.ReadRetryTiers + 1 // no tiers configured: uncorrectable
		if d.cfg.ReadRetryStep > 0 {
			need = int(math.Ceil((raw - d.cfg.ECCBER) / d.cfg.ReadRetryStep))
		}
		if need > d.cfg.ReadRetryTiers {
			d.Stats.ReadFails++
			d.Stats.ReadRetries += int64(d.cfg.ReadRetryTiers)
			return nil, nil, d.cfg.ReadRetryTiers, ErrReadFail
		}
		retries = need
		d.Stats.ReadRetries += int64(need)
	}
	if st.has(hasData, page) {
		data = b.pages[page]
	}
	if ob := d.dims.OOBPerPage; st.has(fullOOB, page) {
		oob = b.oob[page*ob : (page+1)*ob]
	} else if b.oobLen != nil {
		if n := int(b.oobLen[page]); n > 0 {
			oob = b.oob[page*ob : page*ob+n]
		}
	}
	return data, oob, retries, nil
}

// rawBER evaluates the deterministic raw bit-error-rate model for a block:
// quadratic P/E wear, linear (accelerated) retention since first program,
// linear read disturb. All terms are off by default.
func (d *Die) rawBER(b *block) float64 {
	var ber float64
	if d.cfg.BERWearCoeff > 0 && d.cfg.PECycleLimit > 0 {
		r := float64(b.pe) / float64(d.cfg.PECycleLimit)
		ber += d.cfg.BERWearCoeff * r * r
	}
	if d.cfg.BERRetentionCoeff > 0 && d.cfg.RetentionAccel > 0 && d.nowFn != nil {
		if age := float64(d.nowFn()-b.programNS) / 1e9; age > 0 {
			ber += d.cfg.BERRetentionCoeff * d.cfg.RetentionAccel * age
		}
	}
	if d.cfg.BERDisturbCoeff > 0 {
		ber += d.cfg.BERDisturbCoeff * float64(b.reads)
	}
	return ber
}

// Erase wipes a block and charges one PE cycle. Erasing a worn-out block
// returns ErrWornOut; injected failures return ErrEraseFail. In both cases
// the block is marked bad (paper §2.2: no retry on erase failure) and its
// payload is released. A successful erase recycles the block's page buffers
// through the die's free list and ends the validity of every slice Read
// returned for the block.
func (d *Die) Erase(plane, blockIdx int) error {
	b, st, err := d.blk(plane, blockIdx)
	if err != nil {
		return err
	}
	if b.bad {
		return ErrBadBlock
	}
	d.Stats.BlockErases++
	b.pe++
	if d.cfg.PECycleLimit > 0 && b.pe > d.cfg.PECycleLimit {
		d.Stats.EraseFails++
		d.retire(b, st)
		return ErrWornOut
	}
	if d.cfg.EraseFailProb > 0 && d.rng.Float64() < d.cfg.EraseFailProb {
		d.Stats.EraseFails++
		d.retire(b, st)
		return ErrEraseFail
	}
	// Grown bad blocks: the erase-failure probability climbs steeply as the
	// block approaches its cycle limit (quartic in consumed life).
	if d.cfg.GrownBadProb > 0 && d.cfg.PECycleLimit > 0 {
		r := float64(b.pe) / float64(d.cfg.PECycleLimit)
		if d.rng.Float64() < d.cfg.GrownBadProb*r*r*r*r {
			d.Stats.EraseFails++
			d.Stats.GrownBad++
			d.retire(b, st)
			return ErrEraseFail
		}
	}
	for w := hasData; w < len(st); w += pageKinds {
		for m := st[w]; m != 0; m &= m - 1 {
			page := w/pageKinds*64 + bits.TrailingZeros64(m)
			d.recycle(b.pages[page])
			b.pages[page] = nil
		}
	}
	clear(st)
	clear(b.oobLen)
	if poisonOnRecycle {
		poison(b.oob)
	}
	b.writePtr = 0
	b.programNS = 0
	b.reads = 0
	return nil
}

// MarkBad retires a block (host decision after a write failure, §4.2.3).
func (d *Die) MarkBad(plane, blockIdx int) error {
	b, st, err := d.blk(plane, blockIdx)
	if err != nil {
		return err
	}
	d.retire(b, st)
	return nil
}

// IsBad reports whether a block is retired.
func (d *Die) IsBad(plane, blockIdx int) bool {
	b, _, err := d.blk(plane, blockIdx)
	return err == nil && b.bad
}

// WritePtr returns the next page to be programmed in a block; pages below it
// are programmed.
func (d *Die) WritePtr(plane, blockIdx int) int {
	b, _, err := d.blk(plane, blockIdx)
	if err != nil {
		return 0
	}
	return b.writePtr
}

// PECycles returns the block's accumulated program/erase cycles.
func (d *Die) PECycles(plane, blockIdx int) int {
	b, _, err := d.blk(plane, blockIdx)
	if err != nil {
		return 0
	}
	return b.pe
}

// BlockReads returns the reads issued to a block since its last erase —
// its read-disturb pressure.
func (d *Die) BlockReads(plane, blockIdx int) int {
	b, _, err := d.blk(plane, blockIdx)
	if err != nil {
		return 0
	}
	return b.reads
}

// WearSummary aggregates wear across the die: total and maximum per-block
// P/E cycles plus the bad-block count. Inspection tooling uses it for
// per-tenant wear accounting.
func (d *Die) WearSummary() (totalPE int64, maxPE, bad int) {
	for i := range d.blocks {
		b := &d.blocks[i]
		totalPE += int64(b.pe)
		if b.pe > maxPE {
			maxPE = b.pe
		}
		if b.bad {
			bad++
		}
	}
	return totalPE, maxPE, bad
}

// WearFactor returns the access-latency multiplier for a block given its
// age (>= 1.0). The device model multiplies op latencies by it.
func (d *Die) WearFactor(plane, blockIdx int) float64 {
	if d.cfg.WearLatencyFactor <= 0 || d.cfg.PECycleLimit <= 0 {
		return 1
	}
	b, _, err := d.blk(plane, blockIdx)
	if err != nil {
		return 1
	}
	return 1 + d.cfg.WearLatencyFactor*float64(b.pe)/float64(d.cfg.PECycleLimit)
}

// Config returns the die's media configuration.
func (d *Die) Config() Config { return d.cfg }
