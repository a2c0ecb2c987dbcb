// Package ppa implements the Physical Page Address I/O interface's
// hierarchical address space (paper §3).
//
// A PPA is a 64-bit value whose bit fields identify, from most to least
// significant: channel, parallel unit (PU), plane, block, page, and sector.
// Each device defines its own field widths based on its geometry; because
// widths are powers of two while geometry counts need not be, the address
// space may contain holes (invalid addresses), which the device rejects.
package ppa

import (
	"fmt"
	"math/bits"
)

// Geometry describes the dimensions of a device's PPA address space
// (paper §3.2, characteristic 1) plus the media quantization constants.
type Geometry struct {
	Channels       int // channels on the device
	PUsPerChannel  int // parallel units (LUNs) per channel
	PlanesPerPU    int // planes per PU
	BlocksPerPlane int
	PagesPerBlock  int
	SectorsPerPage int
	SectorSize     int // bytes; the minimum unit of ECC and host I/O
	OOBPerPage     int // user-accessible out-of-band bytes per flash page
}

// Validate checks that every dimension is positive.
func (g Geometry) Validate() error {
	type dim struct {
		name string
		v    int
	}
	for _, d := range []dim{
		{"Channels", g.Channels}, {"PUsPerChannel", g.PUsPerChannel},
		{"PlanesPerPU", g.PlanesPerPU}, {"BlocksPerPlane", g.BlocksPerPlane},
		{"PagesPerBlock", g.PagesPerBlock}, {"SectorsPerPage", g.SectorsPerPage},
		{"SectorSize", g.SectorSize},
	} {
		if d.v <= 0 {
			return fmt.Errorf("ppa: geometry %s must be positive, got %d", d.name, d.v)
		}
	}
	if g.OOBPerPage < 0 {
		return fmt.Errorf("ppa: geometry OOBPerPage must be non-negative, got %d", g.OOBPerPage)
	}
	return nil
}

// TotalPUs returns the number of parallel units on the device.
func (g Geometry) TotalPUs() int { return g.Channels * g.PUsPerChannel }

// PageSize returns the flash page size in bytes (excluding OOB).
func (g Geometry) PageSize() int { return g.SectorsPerPage * g.SectorSize }

// BlockBytes returns the data capacity of one block.
func (g Geometry) BlockBytes() int64 {
	return int64(g.PagesPerBlock) * int64(g.PageSize())
}

// PUBytes returns the data capacity of one PU across all its planes.
func (g Geometry) PUBytes() int64 {
	return int64(g.PlanesPerPU) * int64(g.BlocksPerPlane) * g.BlockBytes()
}

// TotalBytes returns the raw data capacity of the device.
func (g Geometry) TotalBytes() int64 { return int64(g.TotalPUs()) * g.PUBytes() }

// TotalSectors returns the number of addressable sectors on the device.
func (g Geometry) TotalSectors() int64 { return g.TotalBytes() / int64(g.SectorSize) }

func (g Geometry) String() string {
	return fmt.Sprintf("geometry{ch=%d pu/ch=%d planes=%d blk/plane=%d pg/blk=%d sec/pg=%d secsz=%d oob=%d cap=%.1fGB}",
		g.Channels, g.PUsPerChannel, g.PlanesPerPU, g.BlocksPerPlane,
		g.PagesPerBlock, g.SectorsPerPage, g.SectorSize, g.OOBPerPage,
		float64(g.TotalBytes())/1e9)
}

// Addr identifies one sector on the device in decomposed form. The packed
// 64-bit wire representation is produced by Format.Encode.
type Addr struct {
	Ch     int
	PU     int
	Plane  int
	Block  int
	Page   int
	Sector int
}

func (a Addr) String() string {
	return fmt.Sprintf("ppa{ch=%d pu=%d pl=%d blk=%d pg=%d sec=%d}",
		a.Ch, a.PU, a.Plane, a.Block, a.Page, a.Sector)
}

// Format defines the bit layout of packed PPAs for a device, derived from
// its geometry. Fields are packed LSB-first in the order sector, page,
// block, plane, PU, channel (paper Figure 2).
//
// Methods that run once per address take a *Format: a Format is over a
// hundred bytes, and a value receiver copies all of it on every call.
type Format struct {
	SectorBits, PageBits, BlockBits, PlaneBits, PUBits, ChBits uint
	geo                                                        Geometry
	// Field offsets, derived from the widths: the shift of each field
	// above the sector field.
	pageShift, blockShift, planeShift, puShift, chShift uint
}

func bitsFor(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n - 1)))
}

// NewFormat derives the packed-address layout for g.
func NewFormat(g Geometry) (Format, error) {
	if err := g.Validate(); err != nil {
		return Format{}, err
	}
	f := Format{
		SectorBits: bitsFor(g.SectorsPerPage),
		PageBits:   bitsFor(g.PagesPerBlock),
		BlockBits:  bitsFor(g.BlocksPerPlane),
		PlaneBits:  bitsFor(g.PlanesPerPU),
		PUBits:     bitsFor(g.PUsPerChannel),
		ChBits:     bitsFor(g.Channels),
		geo:        g,
	}
	f.pageShift = f.SectorBits
	f.blockShift = f.pageShift + f.PageBits
	f.planeShift = f.blockShift + f.BlockBits
	f.puShift = f.planeShift + f.PlaneBits
	f.chShift = f.puShift + f.PUBits
	if total := f.SectorBits + f.PageBits + f.BlockBits + f.PlaneBits + f.PUBits + f.ChBits; total > 64 {
		return Format{}, fmt.Errorf("ppa: format needs %d bits, exceeds 64", total)
	}
	return f, nil
}

// Geometry returns the geometry the format was derived from.
func (f Format) Geometry() Geometry { return f.geo }

// Encode packs a into the device's 64-bit PPA representation. Encode does
// not validate field ranges; use Valid for that.
func (f *Format) Encode(a Addr) uint64 {
	return uint64(a.Sector) |
		uint64(a.Page)<<f.pageShift |
		uint64(a.Block)<<f.blockShift |
		uint64(a.Plane)<<f.planeShift |
		uint64(a.PU)<<f.puShift |
		uint64(a.Ch)<<f.chShift
}

// field extracts the width-bit field at shift from a packed PPA.
func field(v uint64, shift, width uint) int {
	return int(v >> shift & (1<<width - 1))
}

// Decode unpacks a 64-bit PPA into its components.
func (f *Format) Decode(v uint64) Addr {
	return Addr{
		Ch:     int(v >> f.chShift),
		PU:     field(v, f.puShift, f.PUBits),
		Plane:  field(v, f.planeShift, f.PlaneBits),
		Block:  field(v, f.blockShift, f.BlockBits),
		Page:   field(v, f.pageShift, f.PageBits),
		Sector: field(v, 0, f.SectorBits),
	}
}

// GlobalPUOf returns GlobalPU(Decode(v)) without decoding the other fields.
// As in Decode, every bit above the PU field is read as channel, so v must
// carry no tag bits.
func (f *Format) GlobalPUOf(v uint64) int {
	return int(v>>f.chShift)*f.geo.PUsPerChannel + field(v, f.puShift, f.PUBits)
}

// BlockOf returns Decode(v).Block.
func (f *Format) BlockOf(v uint64) int { return field(v, f.blockShift, f.BlockBits) }

// PlaneSectorOf returns Decode(v).Plane and Decode(v).Sector.
func (f *Format) PlaneSectorOf(v uint64) (plane, sector int) {
	return field(v, f.planeShift, f.PlaneBits), field(v, 0, f.SectorBits)
}

// Valid reports whether a addresses a real location: addresses in the holes
// of the power-of-two layout (paper §3.1) are invalid.
func (f *Format) Valid(a Addr) bool {
	g := &f.geo
	return a.Ch >= 0 && a.Ch < g.Channels &&
		a.PU >= 0 && a.PU < g.PUsPerChannel &&
		a.Plane >= 0 && a.Plane < g.PlanesPerPU &&
		a.Block >= 0 && a.Block < g.BlocksPerPlane &&
		a.Page >= 0 && a.Page < g.PagesPerBlock &&
		a.Sector >= 0 && a.Sector < g.SectorsPerPage
}

// GlobalPU returns the device-wide PU index of a (channel-major), matching
// the paper's PU numbering where PU0..PU7 live on channel 0.
func (f *Format) GlobalPU(a Addr) int { return a.Ch*f.geo.PUsPerChannel + a.PU }

// PUAddr returns the channel and in-channel PU for a device-wide PU index.
func (f Format) PUAddr(globalPU int) (ch, pu int) {
	return globalPU / f.geo.PUsPerChannel, globalPU % f.geo.PUsPerChannel
}

// SectorIndex flattens a into a dense 0-based sector index with no holes,
// ordered ch, pu, plane, block, page, sector. Useful for dense host-side
// tables over the physical space.
func (f *Format) SectorIndex(a Addr) int64 {
	g := &f.geo
	idx := int64(a.Ch)
	idx = idx*int64(g.PUsPerChannel) + int64(a.PU)
	idx = idx*int64(g.PlanesPerPU) + int64(a.Plane)
	idx = idx*int64(g.BlocksPerPlane) + int64(a.Block)
	idx = idx*int64(g.PagesPerBlock) + int64(a.Page)
	idx = idx*int64(g.SectorsPerPage) + int64(a.Sector)
	return idx
}

// FromSectorIndex inverts SectorIndex.
func (f *Format) FromSectorIndex(idx int64) Addr {
	g := &f.geo
	a := Addr{}
	a.Sector = int(idx % int64(g.SectorsPerPage))
	idx /= int64(g.SectorsPerPage)
	a.Page = int(idx % int64(g.PagesPerBlock))
	idx /= int64(g.PagesPerBlock)
	a.Block = int(idx % int64(g.BlocksPerPlane))
	idx /= int64(g.BlocksPerPlane)
	a.Plane = int(idx % int64(g.PlanesPerPU))
	idx /= int64(g.PlanesPerPU)
	a.PU = int(idx % int64(g.PUsPerChannel))
	idx /= int64(g.PUsPerChannel)
	a.Ch = int(idx)
	return a
}
