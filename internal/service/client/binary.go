package client

// The binary protocol side of the client: a client-side intern memo so
// warm requests send 16-byte section references instead of full
// bodies, and the miss-resend recovery loop — a server that lost an
// interned section answers 404 with a bitmask, the client resends
// those sections in full, once.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	topomap "repro"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/wirebin"
)

// Protocol selects the client's wire protocol.
type Protocol int

const (
	// ProtoBinary (the default) speaks /v2 frames; a server without
	// them is an error.
	ProtoBinary Protocol = iota
	// ProtoJSON forces the /v1 JSON envelope.
	ProtoJSON
)

// Option configures a Client.
type Option func(*Client)

// WithProtocol pins the client's wire protocol.
func WithProtocol(p Protocol) Option {
	return func(c *Client) { c.proto = p }
}

// memoEntry caches one encoded section: its intern fingerprint, the
// body bytes (kept for miss recovery), and whether a response has
// confirmed the server interned it — only then does the client dare
// send the bare reference.
type memoEntry struct {
	id   [wirebin.FingerprintLen]byte
	body []byte
	// known flips outside the memo lock (confirm runs after the
	// response while other goroutines are already building requests),
	// so it is atomic; id and body are write-once before publication.
	known atomic.Bool
}

// sectionMemo is the client-side twin of the server's intern table,
// keyed by cheap spec identities (no body encode needed to look up).
type sectionMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
}

// memoCap bounds the memo; past it the map resets wholesale (a client
// cycling through hundreds of distinct specs gets no interning
// benefit anyway).
const memoCap = 256

func (m *sectionMemo) get(key string) (*memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return e, ok
}

func (m *sectionMemo) put(key string, e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries == nil || len(m.entries) >= memoCap {
		m.entries = make(map[string]*memoEntry)
	}
	m.entries[key] = e
}

// tasksMemoKey is the cheap identity of a task-graph spec: a
// wirebin.Hash64 over the raw edge list, taken on every request
// because a caller may change a spec in place between calls. It only
// keys the client's own memo (the wire fingerprint is over the
// canonical encoded body), so a hash collision costs a wrong ref at
// worst — which the server's content-addressed table turns into a
// different spec's solve only if the full bodies collided too, i.e.
// never in practice for 64+128 bits.
func tasksMemoKey(ts service.TaskGraphSpec) string {
	h := wirebin.Hash64Init
	h = h.U64(uint64(ts.N))
	h = h.U64(uint64(len(ts.Edges)))
	for _, e := range ts.Edges {
		h = h.U64(uint64(e[0]))
		h = h.U64(uint64(e[1]))
		h = h.U64(uint64(e[2]))
	}
	h = h.U64(uint64(len(ts.Loads)))
	for _, l := range ts.Loads {
		h = h.U64(uint64(l))
	}
	h = h.U64(uint64(len(ts.Coords)))
	for _, row := range ts.Coords {
		h = h.U64(uint64(len(row)))
		for _, c := range row {
			h = h.U64(math.Float64bits(c))
		}
	}
	return "g|" + strconv.FormatUint(uint64(h), 16)
}

// section prepares one request section: a bare reference when the
// memo says the server has it, the full body otherwise. encode runs
// only on first sight of a spec; resend forces the full body in
// resend mode (after a reported miss).
func (c *Client) section(key string, resend bool, encode func(*wirebin.Writer) error) (wirebin.Section, error) {
	if e, ok := c.memo.get(key); ok {
		switch {
		case resend:
			return wirebin.ResendSection(e.body), nil
		case e.known.Load():
			return wirebin.RefSection(e.id), nil
		default:
			return wirebin.FullSection(e.body), nil
		}
	}
	w := wirebin.GetWriter()
	defer wirebin.PutWriter(w)
	if err := encode(w); err != nil {
		return wirebin.Section{}, err
	}
	body := append([]byte(nil), w.Bytes()...)
	e := &memoEntry{id: wirebin.Fingerprint(body), body: body}
	c.memo.put(key, e)
	return wirebin.FullSection(body), nil
}

// sectionBits are the miss-bitmask bits of a request's three
// sections, in sendSections' key order.
var sectionBits = [3]byte{wirebin.SecTopology, wirebin.SecAllocation, wirebin.SecTasks}

// mark flips the memo entries of the flagged sections to server-known
// (after a reply that was not a miss) or unknown (the sections a miss
// frame named).
func (c *Client) mark(keys [3]string, sections byte, known bool) {
	for i, k := range keys {
		if sections&sectionBits[i] == 0 {
			continue
		}
		if e, ok := c.memo.get(k); ok {
			e.known.Store(known)
		}
	}
}

// respBufPool recycles response-body buffers.
var respBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// errNotBinary marks a response that is not a wirebin frame — a
// server without /v2, or a proxy.
var errNotBinary = fmt.Errorf("mapd: server does not speak the binary protocol")

// doBinary posts one frame and decodes the reply, which must be of
// type want, from a pooled buffer that is recycled once decode
// returns (decode must copy what it keeps). An Error frame with a miss
// bitmask comes back as *missError so callers can resend.
func (c *Client) doBinary(ctx context.Context, path string, fw *wirebin.Writer, want byte, decode func(payload []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(fw.Bytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", wirebin.ContentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") != wirebin.ContentType {
		io.Copy(io.Discard, resp.Body)
		return errNotBinary
	}
	bp := respBufPool.Get().(*[]byte)
	defer respBufPool.Put(bp)
	buf := (*bp)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, rerr := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		*bp = buf
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	msgType, payload, err := wirebin.DecodeHeader(buf, 64<<20)
	if err != nil {
		return err
	}
	switch msgType {
	case want:
		return decode(payload)
	case wirebin.MsgError:
		ef, err := wirebin.DecodeError(payload)
		if err != nil {
			return err
		}
		if ef.Missing != 0 {
			return &missError{missing: ef.Missing, msg: ef.Message}
		}
		return fmt.Errorf("mapd: %s (HTTP %d)", ef.Message, ef.Status)
	}
	return fmt.Errorf("mapd: unexpected frame type %d", msgType)
}

// sendSections runs one request whose topology, allocation and task
// sections travel through the intern memo: a bare reference where the
// memo says the server has the section, the full body otherwise.
// encode writes the request frame around the prepared sections. On an
// intern miss the flagged sections go again in full — once; a second
// miss is final.
func (c *Client) sendSections(ctx context.Context, path string, want byte,
	ts service.TopologySpec, as service.AllocationSpec, tg service.TaskGraphSpec,
	encode func(fw *wirebin.Writer, sec [3]wirebin.Section), decode func(payload []byte) error) error {
	keys := [3]string{"t|" + mustTopoKey(ts), "a|" + mustAllocKey(as), tasksMemoKey(tg)}
	bodies := [3]func(*wirebin.Writer) error{
		func(w *wirebin.Writer) error { return service.AppendTopologySection(w, ts) },
		func(w *wirebin.Writer) error { return service.AppendAllocationSection(w, as) },
		func(w *wirebin.Writer) error { return service.AppendTasksSection(w, tg) },
	}
	var resend byte
	for attempt := 0; ; attempt++ {
		var sec [3]wirebin.Section
		for i := range sec {
			var err error
			if sec[i], err = c.section(keys[i], resend&sectionBits[i] != 0, bodies[i]); err != nil {
				return err
			}
		}
		fw := wirebin.GetWriter()
		encode(fw, sec)
		err := c.doBinary(ctx, path, fw, want, decode)
		wirebin.PutWriter(fw)
		var me *missError
		if !errors.As(err, &me) {
			if err == nil {
				c.mark(keys, wirebin.SecTopology|wirebin.SecAllocation|wirebin.SecTasks, true)
			}
			return err
		}
		if attempt > 0 {
			return fmt.Errorf("mapd: intern miss persisted after resend: %s", me.msg)
		}
		// The server forgot them; stop sending references until the
		// resend is confirmed.
		resend = me.missing
		c.mark(keys, resend, false)
	}
}

// missError is a 404 intern-miss frame: the bitmask names the
// sections to resend in full.
type missError struct {
	missing byte
	msg     string
}

func (e *missError) Error() string { return "mapd: intern miss: " + e.msg }

// mapRespFromBin lifts a decoded result frame onto the JSON wire's
// response struct, so callers see one shape regardless of protocol.
func mapRespFromBin(m *wirebin.MapResp) (*service.MapResponse, error) {
	out := &service.MapResponse{
		Mapper:     m.Mapper,
		GroupOf:    m.GroupOf,
		NodeOf:     m.NodeOf,
		AllocNodes: m.AllocNodes,
		Metrics: service.Metrics{
			TH: m.Metrics.TH, WH: m.Metrics.WH, MMC: m.Metrics.MMC,
			MC: m.Metrics.MC, AMC: m.Metrics.AMC, AC: m.Metrics.AC,
			ICV: m.Metrics.ICV, ICM: m.Metrics.ICM, MNRV: m.Metrics.MNRV, MNRM: m.Metrics.MNRM,
			UsedLinks: int(m.Metrics.UsedLinks),
			Makespan:  m.Metrics.Makespan, LoadImbalance: m.Metrics.LoadImbalance,
		},
		FineWHGain:  m.FineWHGain,
		FineVolGain: m.FineVolGain,
		Rankfile:    string(m.Rankfile),
		CacheHit:    m.Flags&wirebin.RespCacheHit != 0,
		ElapsedMS:   m.ElapsedMS,
		Fingerprint: m.Fingerprint,
	}
	if len(m.TraceJSON) > 0 {
		var stages []trace.Stage
		if err := json.Unmarshal(m.TraceJSON, &stages); err != nil {
			return nil, fmt.Errorf("mapd: trace blob: %w", err)
		}
		out.Trace = stages
	}
	return out, nil
}

// solveFlags folds the request's solve options into the frame flag
// word.
func solveFlags(refine, fineRefine, traced, rankfile, balance bool) uint16 {
	var f uint16
	if refine {
		f |= wirebin.FlagRefine
	}
	if fineRefine {
		f |= wirebin.FlagFineRefine
	}
	if traced {
		f |= wirebin.FlagTrace
	}
	if rankfile {
		f |= wirebin.FlagRankfile
	}
	if balance {
		f |= wirebin.FlagBalance
	}
	return f
}

// mapBinary runs one Map over the binary protocol.
func (c *Client) mapBinary(ctx context.Context, req service.MapRequest) (*service.MapResponse, error) {
	var out *service.MapResponse
	err := c.sendSections(ctx, "/v2/map", wirebin.MsgMapResponse, req.Topology, req.Allocation, req.Tasks,
		func(fw *wirebin.Writer, sec [3]wirebin.Section) {
			wirebin.EncodeMapReq(fw, &wirebin.MapReq{
				Mapper:      req.Mapper,
				Seed:        req.Seed,
				Flags:       solveFlags(req.Refine, req.FineRefine, req.Trace, req.Rankfile, req.Balance),
				TimeoutMS:   req.TimeoutMS,
				Parallelism: uint32(req.Parallelism),
				Topo:        sec[0],
				Alloc:       sec[1],
				Tasks:       sec[2],
			})
		},
		func(payload []byte) error {
			m, err := wirebin.DecodeMapResp(payload)
			if err != nil {
				return err
			}
			out, err = mapRespFromBin(m)
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// batchBinary runs one MapBatch over the binary protocol.
func (c *Client) batchBinary(ctx context.Context, req service.BatchRequest) (*service.BatchResponse, error) {
	items := make([]wirebin.BatchItem, len(req.Requests))
	for i, it := range req.Requests {
		items[i] = wirebin.BatchItem{
			Mapper: it.Mapper,
			Seed:   it.Seed,
			Flags:  solveFlags(it.Refine, it.FineRefine, it.Trace, false, it.Balance),
		}
	}
	var out *service.BatchResponse
	err := c.sendSections(ctx, "/v2/map/batch", wirebin.MsgBatchResponse, req.Topology, req.Allocation, req.Tasks,
		func(fw *wirebin.Writer, sec [3]wirebin.Section) {
			wirebin.EncodeBatchReq(fw, &wirebin.BatchReq{
				TimeoutMS:   req.TimeoutMS,
				Parallelism: uint32(req.Parallelism),
				Topo:        sec[0],
				Alloc:       sec[1],
				Tasks:       sec[2],
				Items:       items,
			})
		},
		func(payload []byte) error {
			bin, err := wirebin.DecodeBatchResp(payload)
			if err != nil {
				return err
			}
			out = &service.BatchResponse{
				Results:   make([]service.MapResponse, len(bin.Results)),
				CacheHit:  bin.Flags&wirebin.RespCacheHit != 0,
				ElapsedMS: bin.ElapsedMS,
			}
			for i := range bin.Results {
				r, err := mapRespFromBin(&bin.Results[i])
				if err != nil {
					return err
				}
				out.Results[i] = *r
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// remapBinary runs one Remap over the binary protocol. No sections
// travel — the previous result is a fingerprint, the delta is plain
// arrays — so there is no miss-resend loop; an unknown result
// fingerprint surfaces as the same HTTP 404 error the JSON path
// returns.
func (c *Client) remapBinary(ctx context.Context, req service.RemapRequest) (*service.RemapResponse, error) {
	// The frame deliberately has no slots for the server-controlled
	// solve fields; reject them with the server's own words instead of
	// silently dropping what the JSON path would 400.
	if req.Solve.Workers != 0 {
		return nil, fmt.Errorf("mapd: remap: solve.workers is server-controlled, use the parallelism field")
	}
	if req.Solve.TimeoutMS != 0 {
		return nil, fmt.Errorf("mapd: remap: solve.timeout_ms is server-controlled, use the request-level timeout_ms field")
	}
	breq := wirebin.RemapReq{
		Fingerprint: req.Fingerprint,
		Mapper:      string(req.Solve.Mapper),
		Seed:        req.Solve.Seed,
		Flags: solveFlags(req.Solve.Refine, req.Solve.FineRefine,
			req.Solve.Trace, req.Rankfile, req.Solve.Balance),
		FenceThreshold: req.FenceThreshold,
		TimeoutMS:      req.TimeoutMS,
		Parallelism:    uint32(req.Parallelism),
		Remove:         req.Delta.Remove,
	}
	for _, nc := range req.Delta.Add {
		breq.Add = append(breq.Add, wirebin.NodeCap{Node: nc.Node, Procs: uint32(nc.Procs)})
	}
	for _, nc := range req.Delta.SetCapacity {
		breq.SetCapacity = append(breq.SetCapacity, wirebin.NodeCap{Node: nc.Node, Procs: uint32(nc.Procs)})
	}
	if !objectiveIsZero(req.Objective) {
		blob, err := json.Marshal(req.Objective)
		if err != nil {
			return nil, err
		}
		breq.Objective = blob
	}
	if req.Solve.Sim != nil {
		blob, err := json.Marshal(req.Solve.Sim)
		if err != nil {
			return nil, err
		}
		breq.Sim = blob
	}
	fw := wirebin.GetWriter()
	defer wirebin.PutWriter(fw)
	wirebin.EncodeRemapReq(fw, &breq)
	var out *service.RemapResponse
	err := c.doBinary(ctx, "/v2/remap", fw, wirebin.MsgRemapResponse, func(payload []byte) error {
		bin, err := wirebin.DecodeRemapResp(payload)
		if err != nil {
			return err
		}
		m, err := mapRespFromBin(&bin.MapResp)
		if err != nil {
			return err
		}
		out = &service.RemapResponse{
			MapResponse:   *m,
			Warm:          bin.Flags&wirebin.RespWarm != 0,
			FenceTripped:  bin.Flags&wirebin.RespFenceTripped != 0,
			PrevScore:     bin.PrevScore,
			WarmScore:     bin.WarmScore,
			ColdScore:     bin.ColdScore,
			PairsReused:   int(bin.PairsReused),
			PairsTotal:    int(bin.PairsTotal),
			MigratedTasks: int(bin.MigratedTasks),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// objectiveIsZero reports whether an objective is the zero value (in
// which case it stays off the wire, like the JSON path's omitempty).
func objectiveIsZero(o topomap.Objective) bool {
	return o.Minimize == "" && len(o.Terms) == 0
}

// mustTopoKey / mustAllocKey derive the memo identity of a spec: a
// wirebin.Hash64 over every field, same collision argument as
// tasksMemoKey (the memo maps identity → wire fingerprint; a 64-bit
// collision would have to be matched by a 128-bit body collision to
// misroute a request). Hashing raw fields — not the canonical
// Normalize/Key form — keeps the warm path alloc-free; two spellings
// of one topology just occupy two memo slots. An invalid spec hashes
// like any other: the real error surfaces from the encode (or the
// server), never from the memo.
func mustTopoKey(ts service.TopologySpec) string {
	h := wirebin.Hash64Init
	h = h.Str(ts.Kind)
	h = h.U64(uint64(len(ts.Dims)))
	for _, d := range ts.Dims {
		h = h.U64(uint64(d))
	}
	h = h.U64(uint64(len(ts.BW)))
	for _, bw := range ts.BW {
		h = h.U64(math.Float64bits(bw))
	}
	h = h.U64(uint64(ts.K))
	h = h.U64(math.Float64bits(ts.BWHost))
	h = h.U64(math.Float64bits(ts.Taper))
	h = h.U64(uint64(ts.H))
	h = h.U64(math.Float64bits(ts.BWLocal))
	h = h.U64(math.Float64bits(ts.BWGlobal))
	return strconv.FormatUint(uint64(h), 16)
}

func mustAllocKey(as service.AllocationSpec) string {
	h := wirebin.Hash64Init
	h = h.U64(uint64(len(as.Nodes)))
	for _, n := range as.Nodes {
		h = h.U64(uint64(uint32(n)))
	}
	h = h.U64(uint64(len(as.ProcsPerNode)))
	for _, p := range as.ProcsPerNode {
		h = h.U64(uint64(p))
	}
	h = h.U64(uint64(len(as.Speeds)))
	for _, sp := range as.Speeds {
		h = h.U64(math.Float64bits(sp))
	}
	h = h.U64(uint64(as.SparseNodes))
	h = h.U64(uint64(as.Seed))
	return strconv.FormatUint(uint64(h), 16)
}
