// Package wirebin is the length-prefixed binary frame protocol of the
// mapd /v2 endpoints — the envelope that makes the request path cheap
// enough for the per-job-launch service the paper argues for. The JSON
// protocol re-parses the full topology/task-graph spec on every
// request; at ~2k allocs per warm solve that envelope dominates. A
// binary frame instead carries the hot arrays (CSR task-graph rows,
// allocation node/capacity vectors) verbatim in little-endian, behind
// a fixed 12-byte header, and lets repeat clients replace any of the
// three big sections (topology, allocation, task graph) with the
// 16-byte content fingerprint of the encoded section body. The server
// keeps a bounded intern table of section bodies it has seen; a
// fingerprint it cannot resolve costs an explicit miss frame (HTTP
// 404) and the client resends the full section — the same
// miss-and-resend recovery the /v1/remap fingerprint flow uses.
//
// Frame layout (all integers little-endian):
//
//	offset size  field
//	0      4     magic "mpb1"
//	4      1     version (1)
//	5      1     message type (MsgMapRequest, ...)
//	6      2     flags (reserved, 0)
//	8      4     payload length
//	12     ...   payload
//
// Sections inside a payload are mode-tagged: a full body (mode 0), a
// 16-byte fingerprint reference (mode 1), or a full body resent after
// a reported miss (mode 2 — counted separately by the server so
// operators can see recovery traffic). Every decoder in this package
// is bounds-checked against the payload it was handed and never
// allocates more than a small constant factor of the frame size, so
// adversarial frames (truncated, oversized counts, version skew,
// garbage) fail with an error, not a panic or an allocation spike —
// the property the fuzz targets pin.
package wirebin

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sync"
)

// Magic opens every frame.
const Magic = "mpb1"

// Version is the protocol version this package speaks. A frame with a
// different version is rejected, so the header byte is the upgrade
// hinge: a future v2 decoder can dispatch on it.
const Version = 1

// HeaderLen is the fixed frame header size in bytes.
const HeaderLen = 12

// ContentType is the HTTP content type of a binary frame.
const ContentType = "application/x-mapd-frame"

// Message types.
const (
	MsgMapRequest byte = iota + 1
	MsgMapResponse
	MsgBatchRequest
	MsgBatchResponse
	MsgRemapRequest
	MsgRemapResponse
	MsgError
)

// Section modes: how one of the three big request sections travels.
const (
	// SectionFull carries the encoded body verbatim.
	SectionFull byte = 0
	// SectionRef carries the 16-byte fingerprint of a body the server
	// is expected to have interned.
	SectionRef byte = 1
	// SectionResend carries the body verbatim after the server
	// reported an intern miss — semantically SectionFull, counted
	// separately.
	SectionResend byte = 2
)

// Section identity bits, used in error frames to name which interned
// sections missed.
const (
	SecTopology   byte = 1
	SecAllocation byte = 2
	SecTasks      byte = 4
)

// FingerprintLen is the length of an intern fingerprint.
const FingerprintLen = 16

// Fingerprint returns the 16-byte content fingerprint of an encoded
// section body (FNV-1a 128). Client and server compute it over the
// identical bytes, so the id needs no registration round-trip.
func Fingerprint(body []byte) [FingerprintLen]byte {
	h := fnv.New128a()
	h.Write(body)
	var out [FingerprintLen]byte
	h.Sum(out[:0])
	return out
}

// Hash64 is an inline 64-bit accumulator for hot-path identity keys
// (the service's task-graph digest, solve memo and result
// fingerprints, the client's section memo): value-receiver chaining
// keeps it in registers, where hash/fnv's interface writes force
// every input buffer to escape. Str folds bytes by FNV-1a; U64 folds
// a whole word in one XXH64 tail step, which mixes every bit of the
// word (a plain xor-multiply fold lets two top-bit flips cancel) at
// an eighth of FNV's steps. Start from Hash64Init and fold with
// Str/U64; read the result by converting to uint64. Values are
// deterministic across processes; a change of the fold changes them.
type Hash64 uint64

// Hash64Init is the FNV-1a 64 offset basis.
const Hash64Init Hash64 = 14695981039346656037

const hash64Prime = 1099511628211

// XXH64's primes 1, 2 and 4.
const (
	xxPrime1 = 0x9E3779B185EBCA87
	xxPrime2 = 0xC2B2AE3D27D4EB4F
	xxPrime4 = 0x85EBCA77C2B2AE63
)

// Str folds a string into the accumulator, a byte at a time.
func (h Hash64) Str(s string) Hash64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hash64(s[i])) * hash64Prime
	}
	return h
}

// U64 folds a 64-bit value as XXH64 folds an 8-byte tail:
// h = rotl(h ^ rotl(v·P2, 31)·P1, 27)·P1 + P4.
func (h Hash64) U64(v uint64) Hash64 {
	k := bits.RotateLeft64(v*xxPrime2, 31) * xxPrime1
	return Hash64(bits.RotateLeft64(uint64(h)^k, 27)*xxPrime1 + xxPrime4)
}

// bufPool recycles frame scratch: encoders borrow a Writer, decoders
// (through the service) borrow the byte slice a request body is read
// into. Steady-state framing allocates nothing.
var bufPool = sync.Pool{New: func() any { return &Writer{b: make([]byte, 0, 4096)} }}

// GetWriter borrows a pooled frame writer.
func GetWriter() *Writer {
	w := bufPool.Get().(*Writer)
	w.b = w.b[:0]
	return w
}

// PutWriter returns a writer borrowed with GetWriter. The caller must
// be done with every slice Bytes returned.
func PutWriter(w *Writer) { bufPool.Put(w) }

// Writer appends protocol primitives to a growable frame buffer.
type Writer struct{ b []byte }

// Bytes returns the encoded frame so far; the slice aliases the
// writer's buffer and is invalidated by further writes or PutWriter.
func (w *Writer) Bytes() []byte { return w.b }

// Len returns the number of bytes written.
func (w *Writer) Len() int { return len(w.b) }

// Write implements io.Writer, so text renderers (rankfiles) can
// stream into a frame.
func (w *Writer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *Writer) U8(v byte)     { w.b = append(w.b, v) }
func (w *Writer) U16(v uint16)  { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *Writer) U32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *Writer) U64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *Writer) I64(v int64)   { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// I32s appends a []int32 verbatim (little-endian), length-prefixed.
func (w *Writer) I32s(s []int32) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.U32(uint32(v))
	}
}

// F64s appends a []float64 verbatim (little-endian IEEE-754),
// length-prefixed.
func (w *Writer) F64s(s []float64) {
	w.U32(uint32(len(s)))
	for _, v := range s {
		w.U64(math.Float64bits(v))
	}
}

// Str8 appends a short string (length byte + bytes).
func (w *Writer) Str8(s string) {
	if len(s) > 255 {
		s = s[:255]
	}
	w.U8(byte(len(s)))
	w.b = append(w.b, s...)
}

// Blob appends a length-prefixed byte blob (u32 length).
func (w *Writer) Blob(p []byte) {
	w.U32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// BeginFrame writes the frame header with a zero payload length;
// EndFrame patches the length in once the payload is complete.
func (w *Writer) BeginFrame(msgType byte) {
	w.b = append(w.b, Magic...)
	w.U8(Version)
	w.U8(msgType)
	w.U16(0) // flags, reserved
	w.U32(0) // payload length, patched by EndFrame
}

// EndFrame patches the payload length of the frame opened by
// BeginFrame.
func (w *Writer) EndFrame() {
	binary.LittleEndian.PutUint32(w.b[8:12], uint32(len(w.b)-HeaderLen))
}

// Reader consumes protocol primitives from a frame payload with
// accumulated error state: after the first failure every read returns
// a zero value, so decoders chain reads and check Err once per
// structural boundary.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wirebin: "+format, args...)
	}
}

// take returns the next n bytes as a view into the payload.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("truncated: need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *Reader) U8() byte {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *Reader) U16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

func (r *Reader) U32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (r *Reader) U64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 element count and bounds it: the elements must
// fit in the remaining payload at elemSize bytes each, so a forged
// count can never drive an oversized allocation.
func (r *Reader) Count(elemSize int, what string) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(r.Remaining()) {
		r.fail("%s count %d exceeds remaining payload (%d bytes)", what, n, r.Remaining())
		return 0
	}
	return int(n)
}

// I32s reads a length-prefixed []int32 into a fresh slice.
func (r *Reader) I32s(what string) []int32 {
	n := r.Count(4, what)
	if r.err != nil || n == 0 {
		return nil
	}
	v := r.take(4 * n)
	if v == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(v[4*i:]))
	}
	return out
}

// F64s reads a length-prefixed []float64 into a fresh slice.
func (r *Reader) F64s(what string) []float64 {
	n := r.Count(8, what)
	if r.err != nil || n == 0 {
		return nil
	}
	v := r.take(8 * n)
	if v == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(v[8*i:]))
	}
	return out
}

// Str8 reads a short string (copied out of the payload).
func (r *Reader) Str8(what string) string {
	n := int(r.U8())
	v := r.take(n)
	if v == nil {
		return ""
	}
	return string(v)
}

// Blob reads a length-prefixed byte blob as a view into the payload.
func (r *Reader) Blob(what string) []byte {
	n := r.Count(1, what)
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// DecodeHeader validates a frame header and returns its message type
// and payload view. maxPayload guards the declared length against the
// caller's body limit; the payload must be exactly the declared
// length.
func DecodeHeader(frame []byte, maxPayload int) (msgType byte, payload []byte, err error) {
	if len(frame) < HeaderLen {
		return 0, nil, fmt.Errorf("wirebin: frame shorter than the %d-byte header", HeaderLen)
	}
	if string(frame[:4]) != Magic {
		return 0, nil, fmt.Errorf("wirebin: bad magic %q", frame[:4])
	}
	if frame[4] != Version {
		return 0, nil, fmt.Errorf("wirebin: version %d, this server speaks %d", frame[4], Version)
	}
	msgType = frame[5]
	if msgType == 0 || msgType > MsgError {
		return 0, nil, fmt.Errorf("wirebin: unknown message type %d", msgType)
	}
	n := binary.LittleEndian.Uint32(frame[8:12])
	if int64(n) > int64(maxPayload) {
		return 0, nil, fmt.Errorf("wirebin: declared payload %d exceeds the %d-byte limit", n, maxPayload)
	}
	if int(n) != len(frame)-HeaderLen {
		return 0, nil, fmt.Errorf("wirebin: declared payload %d bytes, frame carries %d", n, len(frame)-HeaderLen)
	}
	return msgType, frame[HeaderLen : HeaderLen+int(n)], nil
}

// Section is one mode-tagged request section: either a fingerprint
// reference or a full body (possibly a resend). Body views the frame.
type Section struct {
	Mode byte
	Body []byte
}

// IsRef reports whether the section is a fingerprint reference and
// returns the id.
func (s Section) IsRef() (id [FingerprintLen]byte, ok bool) {
	if s.Mode != SectionRef {
		return id, false
	}
	copy(id[:], s.Body)
	return id, true
}

// readSection decodes one mode-tagged section.
func (r *Reader) readSection(what string) Section {
	mode := r.U8()
	switch mode {
	case SectionFull, SectionResend:
		return Section{Mode: mode, Body: r.Blob(what)}
	case SectionRef:
		return Section{Mode: mode, Body: r.take(FingerprintLen)}
	default:
		r.fail("%s: unknown section mode %d", what, mode)
		return Section{}
	}
}

// writeSection emits a full (or resend) section from an encoded body.
func (w *Writer) writeSection(mode byte, body []byte) {
	w.U8(mode)
	w.Blob(body)
}
