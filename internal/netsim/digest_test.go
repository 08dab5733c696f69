package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dragonfly"
	"repro/internal/fattree"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/torus"
)

// TestSimulatorDigests pins the bits of the static and adaptive
// communication-only times and of the SpMV time on a torus, a tapered
// fat tree and a dragonfly, each under three grouped placements of a
// random task graph (groups on distinct random hosts, several tasks
// per group). A change to the message-time model must reproduce them
// unedited.
//
// The latency interpolation is a multiply-add, so the digests hold
// only where the compiler fuses none: on amd64.
func TestSimulatorDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other architectures may fuse floating-point multiply-adds")
	}
	want := map[string]string{
		"torus":     "3672cf31d1bf23dbfbd5a9db",
		"fattree":   "3b51143ba54fc092c52dd692",
		"dragonfly": "359c34ee66de01ee24cdb38f",
	}
	ft, err := fattree.New(8, 10e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	df, err := dragonfly.New(3, 10e9, 5e9, 4e9)
	if err != nil {
		t.Fatal(err)
	}
	nets := []struct {
		name  string
		topo  torus.MultipathTopology
		hosts int
	}{
		{"torus", torus.NewHopper3D(8, 8, 8), 512},
		{"fattree", ft, ft.Hosts()},
		{"dragonfly", df, df.Hosts()},
	}
	const tasks, groups = 256, 32
	tg := graph.RandomConnected(tasks, 768, 100, 7)
	for _, net := range nets {
		h := sha256.New()
		put := func(x float64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pl := &metrics.Placement{GroupOf: make([]int32, tasks), NodeOf: make([]int32, groups)}
			for i := range pl.GroupOf {
				pl.GroupOf[i] = int32(rng.Intn(groups))
			}
			for g, host := range rng.Perm(net.hosts)[:groups] {
				pl.NodeOf[g] = int32(host)
			}
			p := Params{Seed: seed}
			put(CommOnly(tg, net.topo, pl, 4096, p).Seconds)
			put(CommOnlyAdaptive(tg, net.topo, pl, 4096, p).Seconds)
			put(SpMV(tg, net.topo, pl, 100, p).Seconds)
		}
		if got := hex.EncodeToString(h.Sum(nil)[:12]); got != want[net.name] {
			t.Errorf("%s: simulator digest %s, want %s", net.name, got, want[net.name])
		}
	}
}
