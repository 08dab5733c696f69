package client

// Package-local tests of the binary call path against stub /v2
// handlers: the intern memo's reference/full/resend section modes,
// the one-round miss recovery, and the error surface of replies that
// are not frames.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
	"repro/internal/wirebin"
)

// stub is a scripted /v2/map server: each request pops the next reply
// and records the mode of its three sections.
type stub struct {
	t       *testing.T
	mu      sync.Mutex
	replies []func(http.ResponseWriter)
	modes   [][3]byte
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		s.t.Error(err)
		return
	}
	msgType, payload, err := wirebin.DecodeHeader(raw, 1<<20)
	if err != nil || msgType != wirebin.MsgMapRequest {
		s.t.Errorf("stub got frame type %d, err %v", msgType, err)
		return
	}
	req, err := wirebin.DecodeMapReq(payload)
	if err != nil {
		s.t.Error(err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.modes = append(s.modes, [3]byte{req.Topo.Mode, req.Alloc.Mode, req.Tasks.Mode})
	if len(s.replies) == 0 {
		s.t.Error("stub ran out of scripted replies")
		return
	}
	reply := s.replies[0]
	s.replies = s.replies[1:]
	reply(w)
}

// seen returns the section modes of every request so far.
func (s *stub) seen() [][3]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][3]byte(nil), s.modes...)
}

func frame(w http.ResponseWriter, status int, encode func(*wirebin.Writer)) {
	fw := wirebin.GetWriter()
	defer wirebin.PutWriter(fw)
	encode(fw)
	w.Header().Set("Content-Type", wirebin.ContentType)
	w.WriteHeader(status)
	w.Write(fw.Bytes())
}

func ok(w http.ResponseWriter) {
	frame(w, http.StatusOK, func(fw *wirebin.Writer) {
		wirebin.EncodeMapResp(fw, &wirebin.MapResp{Mapper: "UWH", GroupOf: []int32{0, 0, 1, 1}, NodeOf: []int32{0, 1}})
	})
}

func miss(sections byte) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		frame(w, http.StatusNotFound, func(fw *wirebin.Writer) {
			wirebin.EncodeError(fw, &wirebin.ErrorFrame{Status: http.StatusNotFound, Missing: sections, Message: "gone"})
		})
	}
}

func badRequest(w http.ResponseWriter) {
	frame(w, http.StatusBadRequest, func(fw *wirebin.Writer) {
		wirebin.EncodeError(fw, &wirebin.ErrorFrame{Status: http.StatusBadRequest, Message: "no"})
	})
}

func request() service.MapRequest {
	return service.MapRequest{
		Topology:   service.TopologySpec{Kind: "torus", Dims: []int{4, 4, 4}},
		Allocation: service.AllocationSpec{SparseNodes: 2, Seed: 1},
		Tasks:      service.TaskGraphSpec{N: 4, Edges: [][3]int64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}},
		Mapper:     "UWH",
	}
}

// run serves the script to a fresh binary client and returns it with
// the stub.
func run(t *testing.T, replies ...func(http.ResponseWriter)) (*Client, *stub) {
	st := &stub{t: t, replies: replies}
	ts := httptest.NewServer(st)
	t.Cleanup(ts.Close)
	return New(ts.URL, nil), st
}

const (
	full   = wirebin.SectionFull
	ref    = wirebin.SectionRef
	resend = wirebin.SectionResend
)

// TestMissResendsOnce: a reference request answered with a miss is
// followed by exactly one request that resends the flagged section in
// resend mode — the others stay references — and then succeeds.
func TestMissResendsOnce(t *testing.T) {
	c, st := run(t, ok, miss(wirebin.SecTasks), ok)
	for i := 0; i < 2; i++ {
		if _, err := c.Map(context.Background(), request()); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	want := [][3]byte{{full, full, full}, {ref, ref, ref}, {ref, ref, resend}}
	modes := st.seen()
	if len(modes) != len(want) {
		t.Fatalf("stub saw %d requests %v, want %v", len(modes), modes, want)
	}
	for i := range want {
		if modes[i] != want[i] {
			t.Fatalf("request %d section modes %v, want %v", i, modes[i], want[i])
		}
	}
}

// TestMissPersistsAfterResend: a second miss is final — no third try.
func TestMissPersistsAfterResend(t *testing.T) {
	all := wirebin.SecTopology | wirebin.SecAllocation | wirebin.SecTasks
	c, st := run(t, miss(all), miss(all))
	_, err := c.Map(context.Background(), request())
	if err == nil || !strings.Contains(err.Error(), "persisted after resend") {
		t.Fatalf("err = %v, want a persisted-miss error", err)
	}
	if modes := st.seen(); len(modes) != 2 || modes[1] != [3]byte{resend, resend, resend} {
		t.Fatalf("stub saw section modes %v, want one full request and one resend", modes)
	}
}

// TestMemoKnownFlips: memo entries turn server-known only after a
// reply that is not a miss, and a miss turns back exactly the
// sections it names.
func TestMemoKnownFlips(t *testing.T) {
	req := request()
	keys := [3]string{"t|" + mustTopoKey(req.Topology), "a|" + mustAllocKey(req.Allocation), tasksMemoKey(req.Tasks)}
	c, _ := run(t, badRequest, ok, miss(wirebin.SecAllocation), badRequest)
	known := func() (k [3]bool) {
		for i, key := range keys {
			e, ok := c.memo.get(key)
			if !ok {
				t.Fatalf("memo has no entry for section %d", i)
			}
			k[i] = e.known.Load()
		}
		return k
	}
	if _, err := c.Map(context.Background(), req); err == nil {
		t.Fatal("scripted 400 came back as success")
	}
	if got := known(); got != [3]bool{} {
		t.Fatalf("after an error reply known = %v, want all false", got)
	}
	if _, err := c.Map(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := known(); got != [3]bool{true, true, true} {
		t.Fatalf("after a success known = %v, want all true", got)
	}
	if _, err := c.Map(context.Background(), req); err == nil {
		t.Fatal("scripted miss-then-400 came back as success")
	}
	if got := known(); got != [3]bool{true, false, true} {
		t.Fatalf("after an allocation miss known = %v, want only the allocation forgotten", got)
	}
}

// TestNonFrameReply: under ProtoBinary a reply that is not a frame —
// a server without /v2 — is a clean error, not a decode attempt.
func TestNonFrameReply(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	c := New(ts.URL, nil, WithProtocol(ProtoBinary))
	if _, err := c.Map(context.Background(), request()); !errors.Is(err, errNotBinary) {
		t.Fatalf("err = %v, want %v", err, errNotBinary)
	}
}
