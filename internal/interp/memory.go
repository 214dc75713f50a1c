package interp

// The memory a State writes is an overlay of 256-byte pages, each with a
// bitmap of the bytes written in it. Pages below 64 KiB sit in a direct
// array; pages above it, which operators reach because their addresses are
// full 64-bit values, sit in a table sorted by page number. A log lists
// every written address once, in the order of its first write: it is the
// set a memory compare needs, and the walk that resets the overlay for the
// state's next run, whose pages come from a free list of the pages the
// reset let go.

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
