package diskcache

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"

	"dufp/internal/wirebin"
)

// segScanner is the read-path state for binary v3 segments, reused
// across every file in a directory: one frame buffer grown to the
// largest frame seen, one wirebin reader, one string interner. Warm
// loads therefore allocate per distinct string (application and governor
// names recur across a campaign), not per record.
type segScanner struct {
	frame []byte
	r     *wirebin.Reader
	in    wirebin.Interner
}

func newSegScanner() *segScanner {
	return &segScanner{frame: make([]byte, 4096), r: wirebin.NewReader(nil)}
}

// file scans one binary segment into c's index. Error policy: a frame
// whose CRC fails is counted corrupt and skipped — the length prefix was
// intact, so the next frame is still aligned. A malformed header, an
// absurd length prefix or a torn tail (the last frame of a crashed
// writer) count one corrupt record and end the file: everything before
// the tear has already been admitted, which is the valid prefix.
func (sc *segScanner) file(c *Cache, path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256*1024)
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
		c.loaded.Add(1)
		c.mem[key] = run
		c.byID[Sum(key)] = key
	}
}

// header validates the segment header and reports whether the segment's
// physics stamp is stale. ok is false when the file holds no frames to
// scan: empty (a writer that crashed before its first flush leaves zero
// bytes), or a header too damaged to trust any framing after it.
func (sc *segScanner) header(c *Cache, br *bufio.Reader) (stale, ok bool) {
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

func (sc *segScanner) grow(n int) {
	if cap(sc.frame) < n {
		sc.frame = make([]byte, n)
	}
	sc.frame = sc.frame[:cap(sc.frame)]
}
