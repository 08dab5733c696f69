package service

// The binary protocol codec: POST /v2/map, /v2/map/batch and
// /v2/remap speak length-prefixed wirebin frames instead of JSON and
// run the same job handlers as /v1 — only the envelope differs. The
// request path is allocation-lean by design: the frame body lands in
// a pooled buffer, the CSR task graph is staged through an arena,
// interned sections skip decode entirely, and the response frame
// streams out of a pooled writer.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	topomap "repro"
	"repro/internal/wirebin"
)

// binaryCodec is the /v2 codec: wirebin frames in and out, the big
// request sections resolved through the intern table.
type binaryCodec struct{ s *Server }

func (binaryCodec) prefix() string                       { return "/v2" }
func (binaryCodec) protoCounter(st *stats) *atomic.Int64 { return &st.protoBinary }

// frameBufPool recycles request-body buffers: one Get per binary
// request, returned as soon as the decoder is done with the views
// into it.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// readFrame reads the whole request body into a pooled buffer. The
// returned release puts the buffer back; every slice decoded out of
// the frame (section views, CSR views) dies with it.
func (c binaryCodec) readFrame(w http.ResponseWriter, r *http.Request) (frame []byte, release func(), err error) {
	limit := c.s.cfg.MaxBodyBytes + wirebin.HeaderLen
	body := http.MaxBytesReader(w, r.Body, limit)
	bp := frameBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if n := r.ContentLength; n > 0 && n <= limit && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, rerr := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			*bp = buf
			frameBufPool.Put(bp)
			return nil, nil, rerr
		}
	}
	*bp = buf
	return buf, func() { frameBufPool.Put(bp) }, nil
}

// decodeFrame reads and validates the frame envelope of one request,
// checking the message type. The payload views the pooled frame
// buffer until release.
func (c binaryCodec) decodeFrame(w http.ResponseWriter, r *http.Request, wantType byte) (payload []byte, release func(), err error) {
	frame, release, err := c.readFrame(w, r)
	if err != nil {
		return nil, nil, err
	}
	msgType, payload, err := wirebin.DecodeHeader(frame, int(c.s.cfg.MaxBodyBytes))
	if err == nil && msgType != wantType {
		err = fmt.Errorf("wirebin: message type %d on this endpoint, want %d", msgType, wantType)
	}
	if err != nil {
		release()
		return nil, nil, err
	}
	return payload, release, nil
}

// resolveSections starts a /v2 job from the mode-tagged wire
// sections: specs, canonical keys and the built task graph, consulting
// the intern table for references and feeding it from full bodies.
// Unresolvable references make a 404 jobError whose bitmask names the
// sections the client must resend in full. Nothing in the job views
// the frame, so the caller may release it once this returns.
func (c binaryCodec) resolveSections(topoSec, allocSec, tasksSec wirebin.Section) (*job, error) {
	j := &job{began: time.Now()}
	var missing byte
	topo, ok, err := c.s.intern.resolve(topoSec, wirebin.SecTopology, func(body []byte) (internVal, error) {
		bt, err := wirebin.DecodeTopology(body)
		if err != nil {
			return internVal{}, err
		}
		ts, err := topoSpecFromBinary(bt)
		return internVal{topo: ts, topoKey: ts.Key()}, err
	})
	if err != nil {
		return nil, err
	}
	if !ok {
		missing |= wirebin.SecTopology
	}
	alloc, ok, err := c.s.intern.resolve(allocSec, wirebin.SecAllocation, func(body []byte) (internVal, error) {
		ba, err := wirebin.DecodeAllocation(body)
		if err != nil {
			return internVal{}, err
		}
		as, err := allocSpecFromBinary(ba)
		if err != nil {
			return internVal{}, err
		}
		key, err := as.Key()
		return internVal{alloc: as, allocKey: key}, err
	})
	if err != nil {
		return nil, err
	}
	if !ok {
		missing |= wirebin.SecAllocation
	}
	tasks, ok, err := c.s.intern.resolve(tasksSec, wirebin.SecTasks, func(body []byte) (internVal, error) {
		view, err := wirebin.ParseTasks(body)
		if err != nil {
			return internVal{}, err
		}
		tg, err := taskGraphFromCSR(view)
		return internVal{tasks: tg}, err
	})
	if err != nil {
		return nil, err
	}
	if !ok {
		missing |= wirebin.SecTasks
	}
	if missing != 0 {
		return nil, &jobError{status: http.StatusNotFound, missing: missing,
			err: fmt.Errorf("intern: unresolved section reference(s); resend the flagged sections in full")}
	}
	j.topo, j.alloc, j.tasks = topo.topo, alloc.alloc, tasks.tasks
	j.engineKey = topo.topoKey + "|" + alloc.allocKey
	return j, nil
}

// flagSolve lowers a frame's mapper, seed and flag word (see
// lowerSolve).
func flagSolve(mapper string, seed int64, f uint16) topomap.Solve {
	return lowerSolve(mapper, seed, f&wirebin.FlagRefine != 0, f&wirebin.FlagFineRefine != 0,
		f&wirebin.FlagTrace != 0, f&wirebin.FlagBalance != 0)
}

func (c binaryCodec) decodeMap(w http.ResponseWriter, r *http.Request) (*job, error) {
	payload, release, err := c.decodeFrame(w, r, wirebin.MsgMapRequest)
	if err != nil {
		return nil, err
	}
	defer release()
	req, err := wirebin.DecodeMapReq(payload)
	if err != nil {
		return nil, err
	}
	j, err := c.resolveSections(req.Topo, req.Alloc, req.Tasks)
	if err != nil {
		return nil, err
	}
	j.solve = flagSolve(req.Mapper, req.Seed, req.Flags)
	j.parallelism, j.timeoutMS = int(req.Parallelism), req.TimeoutMS
	j.rankfile, j.trace = req.Flags&wirebin.FlagRankfile != 0, req.Flags&wirebin.FlagTrace != 0
	return j, nil
}

func (c binaryCodec) decodeBatch(w http.ResponseWriter, r *http.Request) (*job, error) {
	payload, release, err := c.decodeFrame(w, r, wirebin.MsgBatchRequest)
	if err != nil {
		return nil, err
	}
	defer release()
	req, err := wirebin.DecodeBatchReq(payload)
	if err != nil {
		return nil, err
	}
	if len(req.Items) == 0 {
		return nil, errEmptyBatch
	}
	j, err := c.resolveSections(req.Topo, req.Alloc, req.Tasks)
	if err != nil {
		return nil, err
	}
	j.items = make([]topomap.Solve, len(req.Items))
	for i, it := range req.Items {
		j.items[i] = flagSolve(it.Mapper, it.Seed, it.Flags)
	}
	j.parallelism, j.timeoutMS = int(req.Parallelism), req.TimeoutMS
	return j, nil
}

// decodeRemap converts the frame onto the JSON wire's RemapRequest, so
// validation and lowering stay single-sourced.
func (c binaryCodec) decodeRemap(w http.ResponseWriter, r *http.Request) (*job, error) {
	payload, release, err := c.decodeFrame(w, r, wirebin.MsgRemapRequest)
	if err != nil {
		return nil, err
	}
	defer release()
	breq, err := wirebin.DecodeRemapReq(payload)
	if err != nil {
		return nil, err
	}
	req := &RemapRequest{
		Fingerprint:    breq.Fingerprint,
		Solve:          flagSolve(breq.Mapper, breq.Seed, breq.Flags),
		FenceThreshold: breq.FenceThreshold,
		TimeoutMS:      breq.TimeoutMS,
		Rankfile:       breq.Flags&wirebin.FlagRankfile != 0,
		Parallelism:    int(breq.Parallelism),
		Delta:          topomap.AllocationDelta{Remove: breq.Remove},
	}
	for _, nc := range breq.Add {
		req.Delta.Add = append(req.Delta.Add, topomap.NodeCapacity{Node: nc.Node, Procs: int(nc.Procs)})
	}
	for _, nc := range breq.SetCapacity {
		req.Delta.SetCapacity = append(req.Delta.SetCapacity, topomap.NodeCapacity{Node: nc.Node, Procs: int(nc.Procs)})
	}
	if len(breq.Objective) > 0 {
		if err := json.Unmarshal(breq.Objective, &req.Objective); err != nil {
			return nil, fmt.Errorf("remap: objective blob: %w", err)
		}
	}
	if len(breq.Sim) > 0 {
		if err := json.Unmarshal(breq.Sim, &req.Solve.Sim); err != nil {
			return nil, fmt.Errorf("remap: sim blob: %w", err)
		}
	}
	return remapJob(req)
}

// mapFrame transcodes a response onto a result frame's map body.
// The placement slices alias the engine's result arrays (the frame
// writer copies them straight into the output buffer) and the trace
// echo rides as a JSON blob.
func mapFrame(out *MapResponse) wirebin.MapResp {
	met := out.Metrics
	m := wirebin.MapResp{
		Mapper:     out.Mapper,
		GroupOf:    out.GroupOf,
		NodeOf:     out.NodeOf,
		AllocNodes: out.AllocNodes,
		Metrics: wirebin.Metrics{
			TH: met.TH, WH: met.WH, MMC: met.MMC, MC: met.MC, AMC: met.AMC, AC: met.AC,
			ICV: met.ICV, ICM: met.ICM, MNRV: met.MNRV, MNRM: met.MNRM,
			UsedLinks: uint32(met.UsedLinks),
			Makespan:  met.Makespan, LoadImbalance: met.LoadImbalance,
		},
		FineWHGain:  out.FineWHGain,
		FineVolGain: out.FineVolGain,
		ElapsedMS:   out.ElapsedMS,
		Fingerprint: out.Fingerprint,
	}
	if out.CacheHit {
		m.Flags |= wirebin.RespCacheHit
	}
	if out.Rankfile != "" {
		m.Rankfile = []byte(out.Rankfile)
	}
	if out.Trace != nil {
		// Stages hold names, finite durations and integer counters,
		// which always marshal.
		m.TraceJSON, _ = json.Marshal(out.Trace)
	}
	return m
}

// writeFrame sends one encoded frame.
func writeFrame(w http.ResponseWriter, code int, fw *wirebin.Writer) {
	w.Header().Set("Content-Type", wirebin.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(fw.Len()))
	w.WriteHeader(code)
	w.Write(fw.Bytes())
}

func (binaryCodec) encodeMap(w http.ResponseWriter, out MapResponse) {
	m := mapFrame(&out)
	fw := wirebin.GetWriter()
	defer wirebin.PutWriter(fw)
	wirebin.EncodeMapResp(fw, &m)
	writeFrame(w, http.StatusOK, fw)
}

func (binaryCodec) encodeBatch(w http.ResponseWriter, out BatchResponse) {
	b := wirebin.BatchResp{ElapsedMS: out.ElapsedMS, Results: make([]wirebin.MapResp, len(out.Results))}
	if out.CacheHit {
		b.Flags |= wirebin.RespCacheHit
	}
	for i := range out.Results {
		b.Results[i] = mapFrame(&out.Results[i])
	}
	fw := wirebin.GetWriter()
	defer wirebin.PutWriter(fw)
	wirebin.EncodeBatchResp(fw, &b)
	writeFrame(w, http.StatusOK, fw)
}

func (binaryCodec) encodeRemap(w http.ResponseWriter, out RemapResponse) {
	m := wirebin.RemapResp{
		MapResp:       mapFrame(&out.MapResponse),
		PrevScore:     out.PrevScore,
		WarmScore:     out.WarmScore,
		ColdScore:     out.ColdScore,
		PairsReused:   uint32(out.PairsReused),
		PairsTotal:    uint32(out.PairsTotal),
		MigratedTasks: uint32(out.MigratedTasks),
	}
	if out.Warm {
		m.Flags |= wirebin.RespWarm
	}
	if out.FenceTripped {
		m.Flags |= wirebin.RespFenceTripped
	}
	fw := wirebin.GetWriter()
	defer wirebin.PutWriter(fw)
	wirebin.EncodeRemapResp(fw, &m)
	writeFrame(w, http.StatusOK, fw)
}

func (binaryCodec) encodeError(w http.ResponseWriter, status int, missing byte, err error) {
	fw := wirebin.GetWriter()
	defer wirebin.PutWriter(fw)
	wirebin.EncodeError(fw, &wirebin.ErrorFrame{Status: uint16(status), Missing: missing, Message: err.Error()})
	writeFrame(w, status, fw)
}
