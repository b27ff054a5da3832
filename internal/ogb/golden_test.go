package ogb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"piumagcn/internal/graph"
	"piumagcn/internal/rmat"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/graphs.json from the current generators")

const goldenPath = "testdata/graphs.json"

// goldenGraph is one recorded generation: its size and the SHA-256 of
// its arrays (CSR RowPtr, Col and Val bits, or the COO edge list).
type goldenGraph struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	SHA256   string `json:"sha256"`
}

// TestGoldenGraphs regenerates every catalogue dataset plus power-16 at
// three edge caps and three seeds, and rmat edge lists for the
// power-law, uniform and noisy parameter sets, and requires the hashes
// recorded in testdata/graphs.json. Every simulated figure starts from
// these graphs, so a generator change that moves one bit of one graph
// fails here. Rerun with -update-golden only for a change that is meant
// to alter the generated graphs.
func TestGoldenGraphs(t *testing.T) {
	got := goldenGraphs(t)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenGraph
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i, g := range got {
		if g != want[i] {
			t.Errorf("case %d: got %+v\nwant %+v", i, g, want[i])
		}
	}
}

func goldenGraphs(t *testing.T) []goldenGraph {
	t.Helper()
	seeds := []int64{1, 7, 42}
	var out []goldenGraph
	for _, d := range append(Catalog(), PowerRMAT(16)) {
		for _, maxE := range []int64{1 << 10, 1 << 13, 1 << 16} {
			for _, seed := range seeds {
				g, _, err := Generate(d, GenerateOptions{MaxEdges: maxE, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, goldenGraph{
					Name:     fmt.Sprintf("%s cap=%d seed=%d", d.Name, maxE, seed),
					Vertices: g.NumVertices,
					Edges:    g.NumEdges(),
					SHA256:   hashCSR(g),
				})
			}
		}
	}
	params := []struct {
		name string
		p    func(seed int64) rmat.Params
	}{
		{"power-law", func(seed int64) rmat.Params { return rmat.PowerLaw(12, 8, seed) }},
		{"uniform", func(seed int64) rmat.Params { return rmat.Uniform(12, 8, seed) }},
		{"noisy", func(seed int64) rmat.Params {
			p := rmat.PowerLaw(12, 8, seed)
			p.Noise = 0.1
			return p
		}},
		{"scale-0", func(seed int64) rmat.Params { return rmat.PowerLaw(0, 4, seed) }},
	}
	for _, pc := range params {
		for _, seed := range seeds {
			coo, err := rmat.Generate(pc.p(seed))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenGraph{
				Name:     fmt.Sprintf("rmat %s seed=%d", pc.name, seed),
				Vertices: coo.NumVertices,
				Edges:    int64(len(coo.Edges)),
				SHA256:   hashEdges(coo.Edges),
			})
		}
	}
	return out
}

// hashCSR hashes RowPtr, Col and the bits of Val, little-endian.
func hashCSR(g *graph.CSR) string {
	buf := make([]byte, 0, 8*len(g.RowPtr)+12*len(g.Col))
	for _, p := range g.RowPtr {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
	}
	for _, c := range g.Col {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	for _, v := range g.Val {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// hashEdges hashes each edge's endpoints and weight bits, in order.
func hashEdges(edges []graph.Edge) string {
	buf := make([]byte, 0, 16*len(edges))
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Weight))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
