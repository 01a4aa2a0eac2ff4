package diskcache

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"

	"dufp/internal/metrics"
	"dufp/internal/wirebin"
)

// maxReader bounds the read buffer of one segment scan; a smaller
// segment gets a buffer of its own size. Every handle's Open allocates
// one, and a warm replay opens a handle, so it is kept small: a read
// syscall per 32 KiB is noise beside decoding the records it brings.
const maxReader = 32 << 10

// segScanner is the read-path state for binary v3 segments, reused
// across every file in a directory: one frame buffer grown to the
// largest frame seen, one wirebin reader, one string interner. Warm
// loads therefore allocate per distinct string (application and governor
// names recur across a campaign), not per record.
type segScanner struct {
	frame []byte
	r     *wirebin.Reader
	in    wirebin.Interner
	// sizes are the segments' byte lengths at the scan's start, and
	// total their sum: what sizes the index (see admit).
	sizes []int64
	total int64
	sized bool
}

// newSegScanner prepares a scan of the segment files segs.
func newSegScanner(segs []string) *segScanner {
	sc := &segScanner{r: wirebin.NewReader(nil), sizes: make([]int64, len(segs))}
	for i, path := range segs {
		if fi, err := os.Stat(path); err == nil {
			sc.sizes[i] = fi.Size()
			sc.total += fi.Size()
		}
	}
	return sc
}

// file scans one binary segment of size bytes into c's index. Error
// policy: a frame whose CRC fails is counted corrupt and skipped — the
// length prefix was intact, so the next frame is still aligned. A
// malformed header, an absurd length prefix or a torn tail (the last
// frame of a crashed writer) count one corrupt record and end the file:
// everything before the tear has already been admitted, which is the
// valid prefix.
func (sc *segScanner) file(c *Cache, path string, size int64) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	// The reader is no larger than the segment; a segment that grew since
	// its size was taken is still read to its end, in more refills.
	br := bufio.NewReaderSize(f, int(min(size, maxReader)))
	stale, ok := sc.header(c, br)
	if !ok {
		return
	}
	for {
		buf, more := sc.next(c, br)
		if !more {
			return
		}
		if stale {
			// Wrong physics stamp: every well-framed record is stale, no
			// need to decode it.
			c.stale.Add(1)
			continue
		}
		body := buf[4:]
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(buf[:4]) {
			c.corrupt.Add(1)
			continue
		}
		sc.r.Reset(body)
		key := Key{
			App:      sc.r.String(&sc.in),
			Governor: sc.r.String(&sc.in),
			Session:  sc.r.String(&sc.in),
			Idx:      int(sc.r.Int64()),
		}
		run := wirebin.ReadRun(sc.r, &sc.in)
		if sc.r.Err() != nil || sc.r.Len() != 0 {
			c.corrupt.Add(1)
			continue
		}
		sc.admit(c, len(buf))
		c.index(key, run)
	}
}

// admit counts one valid record of frameLen bytes. The first one sizes
// c's index for the whole scan: the segments' bytes over this frame's
// length estimate the record count a little high, since segment headers
// count in the bytes and length prefixes do not in the divisor, so the
// index is allocated once instead of doubling its way up.
func (sc *segScanner) admit(c *Cache, frameLen int) {
	c.loaded.Add(1)
	if !sc.sized {
		sc.sized = true
		c.mem = make(map[Key]metrics.Run, sc.total/int64(frameLen))
	}
}

// header validates the segment header and reports whether the segment's
// physics stamp is stale. ok is false when the file holds no frames to
// scan: empty (a writer that crashed before its first flush leaves zero
// bytes), or a header too damaged to trust any framing after it.
func (sc *segScanner) header(c *Cache, br *bufio.Reader) (stale, ok bool) {
	sc.grow(len(segMagic))
	magic := sc.frame[:len(segMagic)]
	if _, err := io.ReadFull(br, magic); err != nil {
		if err != io.EOF {
			c.corrupt.Add(1)
		}
		return false, false
	}
	if string(magic) != segMagic {
		c.corrupt.Add(1)
		return false, false
	}
	v, err := binary.ReadUvarint(br)
	if err != nil || v != formatVersion {
		c.corrupt.Add(1)
		return false, false
	}
	n, err := binary.ReadUvarint(br)
	if err != nil || n > maxFrame {
		c.corrupt.Add(1)
		return false, false
	}
	sc.grow(int(n))
	stamp := sc.frame[:n]
	if _, err := io.ReadFull(br, stamp); err != nil {
		c.corrupt.Add(1)
		return false, false
	}
	return string(stamp) != c.version, true
}

// next reads one length-prefixed frame — 4 CRC bytes followed by the
// body — into the reused buffer. more is false at a clean end-of-segment
// or after a framing error (counted corrupt here).
func (sc *segScanner) next(c *Cache, br *bufio.Reader) (buf []byte, more bool) {
	if _, err := br.Peek(1); err != nil {
		// Clean end: the previous frame consumed the file exactly.
		return nil, false
	}
	n, err := binary.ReadUvarint(br)
	if err != nil || n > maxFrame {
		c.corrupt.Add(1)
		return nil, false
	}
	sc.grow(int(n) + 4)
	buf = sc.frame[:n+4]
	if _, err := io.ReadFull(br, buf); err != nil {
		c.corrupt.Add(1)
		return nil, false
	}
	return buf, true
}

// grow makes the frame buffer hold at least n bytes.
func (sc *segScanner) grow(n int) {
	if cap(sc.frame) < n {
		sc.frame = make([]byte, max(n, 256))
	}
	sc.frame = sc.frame[:cap(sc.frame)]
}
