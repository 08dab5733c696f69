package wirebin

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

func frame(t *testing.T, encode func(*Writer)) (byte, []byte) {
	t.Helper()
	w := GetWriter()
	defer PutWriter(w)
	encode(w)
	msgType, payload, err := DecodeHeader(w.Bytes(), 1<<20)
	if err != nil {
		t.Fatalf("DecodeHeader: %v", err)
	}
	// Copy: the writer goes back to the pool.
	return msgType, append([]byte(nil), payload...)
}

func TestMapReqRoundTrip(t *testing.T) {
	topo := GetWriter()
	AppendTopology(topo, &Topology{Kind: TopoTorus, Dims: []int32{6, 6, 6}, BW: []float64{9.38e9, 4.68e9, 9.38e9}})
	id := Fingerprint(topo.Bytes())

	in := &MapReq{
		Mapper:      "UWH",
		Seed:        42,
		Flags:       FlagRefine | FlagTrace,
		TimeoutMS:   1500,
		Parallelism: 4,
		Topo:        FullSection(topo.Bytes()),
		Alloc:       RefSection(id),
		Tasks:       ResendSection([]byte{1, 2, 3}),
	}
	msgType, payload := frame(t, func(w *Writer) { EncodeMapReq(w, in) })
	if msgType != MsgMapRequest {
		t.Fatalf("msgType = %d", msgType)
	}
	out, err := DecodeMapReq(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Mapper != in.Mapper || out.Seed != in.Seed || out.Flags != in.Flags ||
		out.TimeoutMS != in.TimeoutMS || out.Parallelism != in.Parallelism {
		t.Fatalf("scalar mismatch: %+v", out)
	}
	if out.Topo.Mode != SectionFull || !bytes.Equal(out.Topo.Body, topo.Bytes()) {
		t.Fatalf("topology section mismatch")
	}
	gotID, ok := out.Alloc.IsRef()
	if !ok || gotID != id {
		t.Fatalf("allocation ref mismatch")
	}
	if out.Tasks.Mode != SectionResend || !bytes.Equal(out.Tasks.Body, []byte{1, 2, 3}) {
		t.Fatalf("tasks resend mismatch")
	}

	dt, err := DecodeTopology(out.Topo.Body)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Kind != TopoTorus || !reflect.DeepEqual(dt.Dims, []int32{6, 6, 6}) ||
		!reflect.DeepEqual(dt.BW, []float64{9.38e9, 4.68e9, 9.38e9}) {
		t.Fatalf("topology decode: %+v", dt)
	}
	PutWriter(topo)
}

func TestBatchReqRoundTrip(t *testing.T) {
	in := &BatchReq{
		TimeoutMS:   99,
		Parallelism: 2,
		Topo:        FullSection([]byte{7}),
		Alloc:       FullSection([]byte{8}),
		Tasks:       FullSection([]byte{9}),
		Items: []BatchItem{
			{Mapper: "UG", Seed: 1, Flags: FlagRefine},
			{Mapper: "RCB", Seed: 2},
		},
	}
	_, payload := frame(t, func(w *Writer) { EncodeBatchReq(w, in) })
	out, err := DecodeBatchReq(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Items, in.Items) {
		t.Fatalf("items: %+v", out.Items)
	}
}

func TestRemapReqRoundTrip(t *testing.T) {
	in := &RemapReq{
		Fingerprint:    "map:deadbeef",
		Mapper:         "UWH",
		Seed:           7,
		Flags:          FlagRankfile,
		FenceThreshold: 1.25,
		TimeoutMS:      2000,
		Parallelism:    8,
		Remove:         []int32{3, 9},
		Add:            []NodeCap{{Node: 11, Procs: 16}},
		SetCapacity:    []NodeCap{{Node: 4, Procs: 8}},
		Objective:      []byte(`{"minimize":"wh"}`),
	}
	_, payload := frame(t, func(w *Writer) { EncodeRemapReq(w, in) })
	out, err := DecodeRemapReq(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Fingerprint != in.Fingerprint || out.FenceThreshold != in.FenceThreshold ||
		!reflect.DeepEqual(out.Remove, in.Remove) || !reflect.DeepEqual(out.Add, in.Add) ||
		!reflect.DeepEqual(out.SetCapacity, in.SetCapacity) ||
		!bytes.Equal(out.Objective, in.Objective) || out.Sim != nil {
		t.Fatalf("remap decode: %+v", out)
	}
	if out.Flags&FlagObjective == 0 || out.Flags&FlagSim != 0 {
		t.Fatalf("flags = %x", out.Flags)
	}
}

func TestMapRespRoundTrip(t *testing.T) {
	in := &MapResp{
		Mapper:      "UWH",
		Flags:       RespCacheHit,
		GroupOf:     []int32{0, 0, 1, 1},
		NodeOf:      []int32{5, 9},
		AllocNodes:  []int32{5, 9, 12},
		Metrics:     Metrics{TH: 1, WH: 2, MMC: 3, MC: 4.5, AMC: 5.5, AC: 6.5, ICV: 7, ICM: 8, MNRV: 9, MNRM: 10, UsedLinks: 11},
		FineWHGain:  -3,
		FineVolGain: 17,
		ElapsedMS:   0.25,
		Fingerprint: "map:cafe",
		Rankfile:    []byte("0,1\n"),
		TraceJSON:   []byte(`[{"name":"map"}]`),
	}
	_, payload := frame(t, func(w *Writer) { EncodeMapResp(w, in) })
	out, err := DecodeMapResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Encode folds the presence bits into Flags; mirror before the
	// deep compare.
	in.Flags |= RespRankfile | RespTrace
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("map response:\n got  %+v\n want %+v", out, in)
	}
}

func TestBatchAndRemapRespRoundTrip(t *testing.T) {
	item := MapResp{Mapper: "UG", GroupOf: []int32{0}, NodeOf: []int32{1}, AllocNodes: []int32{1}, Fingerprint: "map:1"}
	bin := &BatchResp{Flags: RespCacheHit, ElapsedMS: 3.5, Results: []MapResp{item, item}}
	_, payload := frame(t, func(w *Writer) { EncodeBatchResp(w, bin) })
	bout, err := DecodeBatchResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bout, bin) {
		t.Fatalf("batch response mismatch")
	}

	rin := &RemapResp{MapResp: item, PrevScore: 1, WarmScore: 2, ColdScore: 3, PairsReused: 4, PairsTotal: 5, MigratedTasks: 6}
	rin.Flags |= RespWarm
	_, payload = frame(t, func(w *Writer) { EncodeRemapResp(w, rin) })
	rout, err := DecodeRemapResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rout, rin) {
		t.Fatalf("remap response mismatch")
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	in := &ErrorFrame{Status: 404, Missing: SecTopology | SecTasks, Message: "intern miss"}
	msgType, payload := frame(t, func(w *Writer) { EncodeError(w, in) })
	if msgType != MsgError {
		t.Fatalf("msgType = %d", msgType)
	}
	out, err := DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("error frame: %+v", out)
	}
}

func TestAllocationRoundTrip(t *testing.T) {
	cases := []*Allocation{
		{Form: AllocExplicit, Nodes: []int32{1, 2, 3}, CapsForm: CapsDefault},
		{Form: AllocExplicit, Nodes: []int32{1, 2, 3}, CapsForm: CapsUniform, UniformProcs: 8},
		{Form: AllocExplicit, Nodes: []int32{1, 2}, CapsForm: CapsPerNode, ProcsPerNode: []int32{4, 12}},
		{Form: AllocSparse, SparseNodes: 64, Seed: -9},
	}
	for i, in := range cases {
		w := GetWriter()
		AppendAllocation(w, in)
		out, err := DecodeAllocation(w.Bytes())
		PutWriter(w)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("case %d:\n got  %+v\n want %+v", i, out, in)
		}
	}
}

func TestTasksCSRRoundTrip(t *testing.T) {
	// 3 tasks, ring: 0→1, 1→2, 2→0.
	xadj := []int32{0, 1, 2, 3}
	adj := []int32{1, 2, 0}
	ew := []int64{10, 20, 30}
	w := GetWriter()
	defer PutWriter(w)
	AppendTasksCSR(w, xadj, adj, ew, nil, nil, 0)
	v, err := ParseTasks(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v.N != 3 || v.M != 3 {
		t.Fatalf("n=%d m=%d", v.N, v.M)
	}
	for i := 0; i <= 3; i++ {
		if v.Xadj(i) != int(xadj[i]) {
			t.Fatalf("xadj[%d] = %d", i, v.Xadj(i))
		}
	}
	for j := 0; j < 3; j++ {
		if v.Adj(j) != adj[j] || v.EW(j) != ew[j] {
			t.Fatalf("edge %d = (%d,%d)", j, v.Adj(j), v.EW(j))
		}
	}
}

func TestTasksCSRRejectsBadShapes(t *testing.T) {
	enc := func(xadj, adj []int32, ew []int64) []byte {
		w := GetWriter()
		defer PutWriter(w)
		AppendTasksCSR(w, xadj, adj, ew, nil, nil, 0)
		return append([]byte(nil), w.Bytes()...)
	}
	cases := map[string][]byte{
		"xadj not starting at 0":  enc([]int32{1, 2, 3, 3}, []int32{1, 2, 0}, []int64{1, 1, 1}),
		"xadj decreasing":         enc([]int32{0, 2, 1, 3}, []int32{1, 2, 0}, []int64{1, 1, 1}),
		"xadj not reaching m":     enc([]int32{0, 1, 2, 2}, []int32{1, 2, 0}, []int64{1, 1, 1}),
		"truncated body":          enc([]int32{0, 1, 2, 3}, []int32{1, 2, 0}, []int64{1, 1, 1})[:20],
		"trailing bytes":          append(enc([]int32{0, 1, 2, 3}, []int32{1, 2, 0}, []int64{1, 1, 1}), 0),
		"declared m too large":    binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 3), 1<<30),
		"empty body":              {},
		"header only, no arrays":  binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 2), 1),
		"negative xadj via int32": enc([]int32{0, -1, 2, 3}, []int32{1, 2, 0}, []int64{1, 1, 1}),
	}
	for name, body := range cases {
		if _, err := ParseTasks(body); err == nil {
			t.Errorf("%s: ParseTasks accepted a malformed body", name)
		}
	}
}

func TestDecodeHeaderRejects(t *testing.T) {
	good := func() []byte {
		w := GetWriter()
		defer PutWriter(w)
		EncodeError(w, &ErrorFrame{Status: 400, Message: "x"})
		return append([]byte(nil), w.Bytes()...)
	}()
	if _, _, err := DecodeHeader(good, 1<<20); err != nil {
		t.Fatalf("good frame rejected: %v", err)
	}

	bad := map[string][]byte{
		"short":           good[:HeaderLen-1],
		"magic":           append([]byte("nope"), good[4:]...),
		"version":         append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"msgtype zero":    func() []byte { b := append([]byte(nil), good...); b[5] = 0; return b }(),
		"msgtype unknown": func() []byte { b := append([]byte(nil), good...); b[5] = 200; return b }(),
		"length mismatch": func() []byte { b := append([]byte(nil), good...); b[8]++; return b }(),
		"truncated body":  good[:len(good)-1],
	}
	for name, f := range bad {
		if _, _, err := DecodeHeader(f, 1<<20); err == nil {
			t.Errorf("%s: DecodeHeader accepted a malformed frame", name)
		}
	}
	// Payload over the caller's limit.
	if _, _, err := DecodeHeader(good, 1); err == nil {
		t.Error("payload over maxPayload accepted")
	}
}

func TestFingerprintStability(t *testing.T) {
	a := Fingerprint([]byte("hello"))
	b := Fingerprint([]byte("hello"))
	c := Fingerprint([]byte("hellp"))
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	if a == c {
		t.Fatal("distinct bodies collided")
	}
}

// TestHash64Words: U64 mixes every bit of each word it folds. Two
// sequences that differ only in the top bit of two words collide
// under a plain xor-multiply word fold — the first flip survives the
// multiply as a top-bit flip and the second cancels it — and must not
// under Hash64. Word order matters too.
func TestHash64Words(t *testing.T) {
	fold := func(words ...uint64) Hash64 {
		h := Hash64Init
		for _, w := range words {
			h = h.U64(w)
		}
		return h
	}
	plain := func(words ...uint64) uint64 {
		h := uint64(Hash64Init)
		for _, w := range words {
			h = (h ^ w) * hash64Prime
		}
		return h
	}
	const top = 1 << 63
	a := []uint64{7, 3, 9, 1024}
	b := []uint64{7, 3 ^ top, 9 ^ top, 1024}
	if plain(a...) != plain(b...) {
		t.Fatal("the plain xor-multiply fold separates the top-bit pair; the input no longer tests the mix")
	}
	if fold(a...) == fold(b...) {
		t.Fatal("Hash64 collides on two words differing only in their top bits")
	}
	if fold(a...) != fold(7, 3, 9, 1024) {
		t.Fatal("Hash64 not deterministic")
	}
	if fold(a...) == fold(7, 9, 3, 1024) {
		t.Fatal("Hash64 ignores the order of two words")
	}
}
