package interp

// The memory a State writes, and an Image under it, is an overlay of
// 256-byte pages, each with a bitmap of the bytes written in it. Pages
// below 64 KiB sit in a direct array; pages above it, which operators reach
// because their addresses are full 64-bit values, sit in a table sorted by
// page number. A log lists every written address once, in the order of its
// first write: it is the set a memory compare needs, and the walk that
// resets the overlay for its next use, whose pages come from a free list of
// the pages the reset let go.

const (
	pageBits = 8
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
	// lowPages is the number of pages below 64 KiB.
	lowPages = 1 << (16 - pageBits)
)

// page holds the written bytes of one page; set marks which they are.
type page struct {
	set  [pageSize / 64]uint64
	data [pageSize]byte
}

// bit returns the word of a page's bitmap that holds addr's bit, and the
// bit.
func bit(addr uint64) (int, uint64) {
	return int(addr >> 6 & (pageSize/64 - 1)), 1 << (addr & 63)
}

// has reports whether the byte at addr, an address on this page, was
// written.
func (p *page) has(addr uint64) bool {
	w, b := bit(addr)
	return p.set[w]&b != 0
}

// highPage is a page at or above 64 KiB and its page number.
type highPage struct {
	num uint64
	p   *page
}

// overlay is a state's written memory. A page is mapped, in low or in
// high, exactly while it holds a byte written since the last reset.
type overlay struct {
	low  [lowPages]*page
	high []highPage // sorted by num
	log  []uint64   // written addresses, in the order of first write
	free []*page    // pages a reset let go, bitmaps clear
}

// page returns the page holding addr, or nil when nothing on it was
// written.
func (o *overlay) page(addr uint64) *page {
	if n := addr >> pageBits; n < lowPages {
		return o.low[n]
	}
	if i, ok := o.search(addr >> pageBits); ok {
		return o.high[i].p
	}
	return nil
}

// load returns the byte written at addr, and whether one was.
func (o *overlay) load(addr uint64) (byte, bool) {
	if p := o.page(addr); p != nil && p.has(addr) {
		return p.data[addr&pageMask], true
	}
	return 0, false
}

// search returns the index of page number n in high, or where it would be
// inserted and false.
func (o *overlay) search(n uint64) (int, bool) {
	lo, hi := 0, len(o.high)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.high[mid].num < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(o.high) && o.high[lo].num == n
}

// store writes v at addr, mapping its page first if need be.
func (o *overlay) store(addr uint64, v byte) {
	p := o.page(addr)
	if p == nil {
		p = o.mapPage(addr >> pageBits)
	}
	if w, b := bit(addr); p.set[w]&b == 0 {
		p.set[w] |= b
		o.log = append(o.log, addr)
	}
	p.data[addr&pageMask] = v
}

// mapPage maps a page, from the free list when it has one, at page number
// n.
func (o *overlay) mapPage(n uint64) *page {
	var p *page
	if k := len(o.free); k > 0 {
		p, o.free = o.free[k-1], o.free[:k-1]
	} else {
		p = new(page)
	}
	if n < lowPages {
		o.low[n] = p
	} else {
		i, _ := o.search(n)
		o.high = append(o.high, highPage{})
		copy(o.high[i+1:], o.high[i:])
		o.high[i] = highPage{num: n, p: p}
	}
	return p
}

// reset forgets every written byte. It walks the log to find the mapped
// low pages, clears their bitmaps and those of the high pages, and puts
// them all on the free list.
func (o *overlay) reset() {
	for _, a := range o.log {
		if n := a >> pageBits; n < lowPages && o.low[n] != nil {
			o.low[n].set = [pageSize / 64]uint64{}
			o.free = append(o.free, o.low[n])
			o.low[n] = nil
		}
	}
	for _, h := range o.high {
		h.p.set = [pageSize / 64]uint64{}
		o.free = append(o.free, h.p)
	}
	o.high, o.log = o.high[:0], o.log[:0]
}

// Image is a memory image: the read-only Base a State reads under the
// bytes it writes itself. It keeps its bytes as a state does, in paged
// memory that holds any 64-bit address, so a read of it is a page lookup
// and no map. A stored 0 is a byte of the image like any other. Reset
// empties it and keeps its pages, so an Image refilled again and again, as
// a validation refills one per input, allocates nothing once its pages
// exist.
//
// The zero Image is empty and ready to use. Runs only read an Image, so
// any number of states may run over one at once, but it must not be
// stored to or reset while they do.
type Image struct {
	mem overlay
}

// Store sets the byte at addr to v.
func (m *Image) Store(addr uint64, v byte) {
	m.mem.store(addr, v)
}

// Load returns the byte at addr, or 0 where none was stored. A nil Image
// reads as all zeros.
func (m *Image) Load(addr uint64) byte {
	if m == nil {
		return 0
	}
	v, _ := m.mem.load(addr)
	return v
}

// Written returns every address stored to since the image was made or
// last reset, each once, in the order of its first store. The slice
// belongs to the image: it is valid until the next Store or Reset, and the
// caller must not modify it.
func (m *Image) Written() []uint64 {
	return m.mem.log
}

// Reset empties the image, keeping its pages for later stores.
func (m *Image) Reset() {
	m.mem.reset()
}
