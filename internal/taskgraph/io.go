package taskgraph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// Encode serializes the task graph in the plain text edge-list
// format "src dst volume" (one directed edge per line, 0-based ids),
// preceded by a comment header. Compute loads are emitted as
// "# load <task> <nnz>" lines and task coordinates as
// "# coord <task> <x> <y> [z]" lines when present.
func (t *TaskGraph) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# task graph: %d tasks, %d directed edges\n", t.K, t.G.M()); err != nil {
		return err
	}
	if t.G.VW != nil {
		for v, load := range t.G.VW {
			if _, err := fmt.Fprintf(bw, "# load %d %d\n", v, load); err != nil {
				return err
			}
		}
	}
	if t.HasCoords() {
		for v := 0; v < t.K; v++ {
			if _, err := fmt.Fprintf(bw, "# coord %d", v); err != nil {
				return err
			}
			for _, c := range t.Coord(v) {
				if _, err := fmt.Fprintf(bw, " %s", strconv.FormatFloat(c, 'g', -1, 64)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(bw); err != nil {
				return err
			}
		}
	}
	for u := 0; u < t.G.N(); u++ {
		for i := t.G.Xadj[u]; i < t.G.Xadj[u+1]; i++ {
			if _, err := fmt.Fprintf(bw, "%d %d %d\n", u, t.G.Adj[i], t.G.EdgeWeight(int(i))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// maxTaskID is the largest task id Read accepts: the task count, one
// past the largest id, must itself fit the graph's int32 vertex ids.
const maxTaskID = math.MaxInt32 - 1

// checkTaskID rejects a task id outside [0, maxTaskID], naming the
// line it sits on.
func checkTaskID(lineNo, id int) error {
	if id < 0 || id > maxTaskID {
		return fmt.Errorf("taskgraph: line %d: task id %d outside [0,%d]", lineNo, id, maxTaskID)
	}
	return nil
}

// Read parses the text edge-list format of Encode: whitespace-
// separated "src dst [volume]" lines (volume defaults to 1), with
// "#"-prefixed comments; "# load <task> <nnz>" comments restore
// compute loads and "# coord <task> <x> <y> [z]" comments restore
// task coordinates (the first coord line fixes the dimensionality;
// tasks without one sit at the origin). Other comments, and load or
// coord comments that do not parse, are ignored, but a task id outside
// [0, math.MaxInt32-1] on an edge, load or coord line is an error, as
// is a negative load. Tasks without a load line carry load 1, and the
// loads are set through SetLoads. The number of tasks is one plus the
// largest id seen.
func Read(r io.Reader) (*TaskGraph, error) {
	var us, vs []int32
	var ws []int64
	loads := map[int]int64{}
	coords := map[int][]float64{}
	coordDim := 0
	maxID := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "load" {
				id, err1 := strconv.Atoi(fields[2])
				load, err2 := strconv.ParseInt(fields[3], 10, 64)
				if err1 == nil && err2 == nil {
					if err := checkTaskID(lineNo, id); err != nil {
						return nil, err
					}
					if load < 0 {
						return nil, fmt.Errorf("taskgraph: line %d: task %d has negative load %d", lineNo, id, load)
					}
					loads[id] = load
					if id > maxID {
						maxID = id
					}
				}
			}
			if (len(fields) == 5 || len(fields) == 6) && fields[1] == "coord" {
				id, err := strconv.Atoi(fields[2])
				dim := len(fields) - 3
				vec := make([]float64, 0, dim)
				for _, f := range fields[3:] {
					c, cerr := strconv.ParseFloat(f, 64)
					if cerr != nil || math.IsNaN(c) || math.IsInf(c, 0) {
						err = fmt.Errorf("bad coord")
						break
					}
					vec = append(vec, c)
				}
				if err == nil {
					if err := checkTaskID(lineNo, id); err != nil {
						return nil, err
					}
					if coordDim == 0 || coordDim == dim {
						coordDim = dim
						coords[id] = vec
						if id > maxID {
							maxID = id
						}
					}
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("taskgraph: line %d: need \"src dst [volume]\", got %q", lineNo, line)
		}
		s, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("taskgraph: line %d: bad src %q", lineNo, fields[0])
		}
		d, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("taskgraph: line %d: bad dst %q", lineNo, fields[1])
		}
		if err := checkTaskID(lineNo, s); err != nil {
			return nil, err
		}
		if err := checkTaskID(lineNo, d); err != nil {
			return nil, err
		}
		w := int64(1)
		if len(fields) > 2 {
			w, err = strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("taskgraph: line %d: bad volume %q", lineNo, fields[2])
			}
			if w <= 0 {
				return nil, fmt.Errorf("taskgraph: line %d: volume must be positive", lineNo)
			}
		}
		us = append(us, int32(s))
		vs = append(vs, int32(d))
		ws = append(ws, w)
		if s > maxID {
			maxID = s
		}
		if d > maxID {
			maxID = d
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxID < 0 {
		return nil, fmt.Errorf("taskgraph: empty input")
	}
	n := maxID + 1
	tg := &TaskGraph{G: graph.FromEdges(n, us, vs, ws, nil), K: n}
	if len(loads) > 0 {
		vw := make([]int64, n)
		for i := range vw {
			vw[i] = 1
		}
		for id, load := range loads {
			vw[id] = load
		}
		if err := tg.SetLoads(vw); err != nil {
			return nil, err
		}
	}
	if len(coords) > 0 {
		flat := make([]float64, n*coordDim)
		for id, vec := range coords {
			copy(flat[id*coordDim:], vec)
		}
		if err := tg.SetCoords(coordDim, flat); err != nil {
			return nil, err
		}
	}
	return tg, nil
}
