package gen

import (
	"strings"
	"testing"

	"repro/internal/matrix"
)

func checkSquareValid(t *testing.T, m *matrix.CSR) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != m.Cols {
		t.Fatalf("not square: %dx%d", m.Rows, m.Cols)
	}
}

func isSymmetric(m *matrix.CSR) bool {
	tr := m.Transpose()
	if tr.NNZ() != m.NNZ() {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		a, b := m.Row(i), tr.Row(i)
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

func hasFullDiagonal(m *matrix.CSR) bool {
	for i := 0; i < m.Rows; i++ {
		found := false
		for _, c := range m.Row(i) {
			if int(c) == i {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestDeBruijn(t *testing.T) {
	m := DeBruijn(4, 4) // 256 states
	checkSquareValid(t, m)
	if m.Rows != 256 {
		t.Fatalf("rows = %d, want 256", m.Rows)
	}
	if !hasFullDiagonal(m) {
		t.Fatal("missing diagonal")
	}
	// Every row must have at least alpha+1 entries (self + shifts).
	for i := 0; i < m.Rows; i++ {
		if m.RowNNZ(i) < 5 {
			t.Fatalf("row %d has only %d entries", i, m.RowNNZ(i))
		}
	}
}

func TestRGGSymmetricAndConnected(t *testing.T) {
	m := RGG(2000, 1.8, 42)
	checkSquareValid(t, m)
	if !isSymmetric(m) {
		t.Fatal("RGG not symmetric")
	}
	if !hasFullDiagonal(m) {
		t.Fatal("RGG missing diagonal")
	}
	// Mean degree should be moderate, not absurd.
	avg := float64(m.NNZ()) / float64(m.Rows)
	if avg < 3 || avg > 60 {
		t.Fatalf("RGG mean row nnz = %f, suspicious", avg)
	}
}

func TestRGGDeterminism(t *testing.T) {
	a := RGG(500, 1.8, 7)
	b := RGG(500, 1.8, 7)
	if a.NNZ() != b.NNZ() {
		t.Fatal("RGG not deterministic")
	}
}

func TestMesh2D(t *testing.T) {
	m := Mesh2D(10, 8, 5)
	checkSquareValid(t, m)
	if m.Rows != 80 {
		t.Fatalf("rows = %d, want 80", m.Rows)
	}
	if !isSymmetric(m) {
		t.Fatal("mesh not symmetric")
	}
	// Interior point has 5 entries with the 5-point stencil.
	interior := 3*10 + 4
	if m.RowNNZ(interior) != 5 {
		t.Fatalf("interior row nnz = %d, want 5", m.RowNNZ(interior))
	}
	// Corner has 3.
	if m.RowNNZ(0) != 3 {
		t.Fatalf("corner row nnz = %d, want 3", m.RowNNZ(0))
	}
	m9 := Mesh2D(10, 8, 9)
	if m9.RowNNZ(interior) != 9 {
		t.Fatalf("9-point interior nnz = %d, want 9", m9.RowNNZ(interior))
	}
}

func TestMesh3D(t *testing.T) {
	m := Mesh3D(5, 4, 3)
	checkSquareValid(t, m)
	if m.Rows != 60 {
		t.Fatalf("rows = %d, want 60", m.Rows)
	}
	if !isSymmetric(m) {
		t.Fatal("3d mesh not symmetric")
	}
	// Interior point (x=2,y=2,z=1) has 7 entries.
	id := (1*4+2)*5 + 2
	if m.RowNNZ(id) != 7 {
		t.Fatalf("interior nnz = %d, want 7", m.RowNNZ(id))
	}
}

func TestRMAT(t *testing.T) {
	m := RMAT(10, 8, 3)
	checkSquareValid(t, m)
	if m.Rows != 1024 {
		t.Fatalf("rows = %d, want 1024", m.Rows)
	}
	if !isSymmetric(m) {
		t.Fatal("RMAT not symmetric after symmetrization")
	}
	// Power-law-ish: max degree far above mean.
	avg := float64(m.NNZ()) / float64(m.Rows)
	if float64(m.MaxRowNNZ()) < 3*avg {
		t.Fatalf("RMAT max degree %d not skewed vs mean %f", m.MaxRowNNZ(), avg)
	}
}

func TestBandedStaysInBand(t *testing.T) {
	const band = 16
	m := Banded(1000, band, 4, 5)
	checkSquareValid(t, m)
	if !isSymmetric(m) {
		t.Fatal("banded not symmetric")
	}
	for i := 0; i < m.Rows; i++ {
		for _, c := range m.Row(i) {
			d := int(c) - i
			if d < 0 {
				d = -d
			}
			if d > band {
				t.Fatalf("entry (%d,%d) outside band %d", i, c, band)
			}
		}
	}
}

func TestCircuitHasHubs(t *testing.T) {
	m := Circuit(3000, 10, 9)
	checkSquareValid(t, m)
	if !isSymmetric(m) {
		t.Fatal("circuit not symmetric")
	}
	avg := float64(m.NNZ()) / float64(m.Rows)
	if float64(m.MaxRowNNZ()) < 5*avg {
		t.Fatalf("circuit lacks hub rows: max %d, mean %f", m.MaxRowNNZ(), avg)
	}
}

func TestWebIsDirected(t *testing.T) {
	m := Web(2000, 5, 4)
	checkSquareValid(t, m)
	if isSymmetric(m) {
		t.Fatal("web pattern should be asymmetric")
	}
	if !hasFullDiagonal(m) {
		t.Fatal("web missing diagonal")
	}
}

func TestKKTStructure(t *testing.T) {
	m := KKT(900, 100, 6)
	checkSquareValid(t, m)
	if !isSymmetric(m) {
		t.Fatal("KKT not symmetric")
	}
	if m.Rows != 30*30+100 {
		t.Fatalf("rows = %d, want 1000", m.Rows)
	}
}

func TestUniform(t *testing.T) {
	m := Uniform(1000, 4, 8)
	checkSquareValid(t, m)
	if !isSymmetric(m) {
		t.Fatal("uniform not symmetric")
	}
}

func TestDatasetRegistry(t *testing.T) {
	ds := Dataset()
	if len(ds) != 25 {
		t.Fatalf("dataset has %d matrices, want 25", len(ds))
	}
	classes := map[Class]int{}
	names := map[string]bool{}
	for _, s := range ds {
		if names[s.Name] {
			t.Fatalf("duplicate name %q", s.Name)
		}
		names[s.Name] = true
		classes[s.Class]++
	}
	if len(classes) != 9 {
		t.Fatalf("dataset has %d classes, want 9", len(classes))
	}
	if !names[Cagelike] || !names[RGGName] {
		t.Fatal("headline matrices missing from registry")
	}
}

func TestDatasetTinyGeneratesValid(t *testing.T) {
	for _, s := range Dataset() {
		m := s.Generate(Tiny)
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if m.Rows < 256 {
			t.Fatalf("%s: tiny tier too small (%d rows)", s.Name, m.Rows)
		}
		if m.Rows > 20000 {
			t.Fatalf("%s: tiny tier too big (%d rows)", s.Name, m.Rows)
		}
	}
}

func TestDatasetTiersGrow(t *testing.T) {
	s, err := ByName("mesh2d-a")
	if err != nil {
		t.Fatal(err)
	}
	tiny, small := s.Generate(Tiny), s.Generate(Small)
	if tiny.Rows >= small.Rows {
		t.Fatalf("tiers do not grow: tiny %d, small %d", tiny.Rows, small.Rows)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("no-such-matrix"); err == nil {
		t.Fatal("expected error")
	}
	if len(Names()) != 25 {
		t.Fatalf("Names() = %d entries", len(Names()))
	}
}

func TestParseTier(t *testing.T) {
	for name, want := range map[string]Tier{"tiny": Tiny, "Small": Small, "LARGE": Large} {
		got, err := ParseTier(name)
		if err != nil || got != want {
			t.Fatalf("ParseTier(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"tinny", "", "medium"} {
		if _, err := ParseTier(bad); err == nil || !strings.Contains(err.Error(), "unknown tier") {
			t.Fatalf("ParseTier(%q): err = %v, want unknown tier", bad, err)
		}
	}
}
