package taskgraph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestTaskGraphIORoundTrip(t *testing.T) {
	m := tridiag(16)
	part := make([]int32, 16)
	for i := range part {
		part[i] = int32(i / 4)
	}
	tg, err := Build(m, part, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tg.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != tg.K || back.G.M() != tg.G.M() {
		t.Fatalf("round trip shape: K %d/%d M %d/%d", back.K, tg.K, back.G.M(), tg.G.M())
	}
	for u := 0; u < tg.G.N(); u++ {
		a, b := tg.G.Neighbors(u), back.G.Neighbors(u)
		wa, wb := tg.G.Weights(u), back.G.Weights(u)
		if len(a) != len(b) {
			t.Fatalf("task %d adjacency differs", u)
		}
		for i := range a {
			if a[i] != b[i] || wa[i] != wb[i] {
				t.Fatalf("task %d edge %d differs", u, i)
			}
		}
		if tg.G.VertexWeight(u) != back.G.VertexWeight(u) {
			t.Fatalf("task %d load lost: %d vs %d", u, tg.G.VertexWeight(u), back.G.VertexWeight(u))
		}
	}
	// Partition metrics must survive the round trip.
	if tg.PartitionMetrics() != back.PartitionMetrics() {
		t.Fatal("metrics differ after round trip")
	}
}

func TestReadDefaults(t *testing.T) {
	in := `# comment line
0 1 10

1 2
`
	tg, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tg.K != 3 {
		t.Fatalf("K = %d, want 3", tg.K)
	}
	// Edge 1->2 defaults to volume 1.
	found := false
	for i := tg.G.Xadj[1]; i < tg.G.Xadj[2]; i++ {
		if tg.G.Adj[i] == 2 && tg.G.EW[i] == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("default volume edge missing")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",              // empty
		"0\n",           // too few fields
		"a b 1\n",       // bad src
		"0 b 1\n",       // bad dst
		"0 1 x\n",       // bad volume
		"0 1 0\n",       // non-positive volume
		"-1 2 1\n",      // negative id
		"# only\n#hi\n", // comments only
	}
	for i, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("case %d (%q): expected error", i, in)
		}
	}
}

// TestReadRejectsOutOfRangeIDs: a negative task id, or one whose task
// count would not fit an int32 vertex id, is a line-numbered error on
// an edge, load or coord line, before anything is sized from it.
func TestReadRejectsOutOfRangeIDs(t *testing.T) {
	cases := []struct {
		in   string
		line string
	}{
		{"0 1 5\n# load -1 3\n", "line 2"},
		{"0 1 5\n# coord -1 0.5 1\n", "line 2"},
		{"# load 2147483647 3\n0 1 5\n", "line 1"},
		{"0 1\n# coord 2147483648 1 2 3\n", "line 2"},
		{"0 1\n1 2147483647\n", "line 2"},
		{"2147483648 0 1\n", "line 1"},
		{"4294967296 0 1\n", "line 1"},
		{"0 -4294967295 1\n", "line 1"},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.line+":") {
			t.Fatalf("Read(%q) = %v, want an error on %s", c.in, err, c.line)
		}
	}
}

// TestReadLoads: a negative load is a line-numbered error, loads that
// are all 1 read as absent, and any other load keeps the whole vector.
func TestReadLoads(t *testing.T) {
	if _, err := Read(strings.NewReader("0 1 5\n# load 0 -3\n")); err == nil || !strings.Contains(err.Error(), "line 2:") {
		t.Fatalf("negative load: err = %v, want an error on line 2", err)
	}
	unit, err := Read(strings.NewReader("# load 0 1\n# load 1 1\n# load 2 1\n0 1 5\n1 2 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if unit.G.VW != nil {
		t.Fatalf("unit loads read as VW=%v, want nil", unit.G.VW)
	}
	mixed, err := Read(strings.NewReader("# load 1 3\n0 1 5\n1 2 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 3, 1}; !reflect.DeepEqual(mixed.G.VW, want) {
		t.Fatalf("loads read as VW=%v, want %v", mixed.G.VW, want)
	}
}
