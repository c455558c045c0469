package synth

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"flowgen/internal/circuits"
	"flowgen/internal/flow"
)

// qorGolden is the committed QoR golden (testdata/qor_golden.json): seeded
// random flows with the exact QoR the engine produced for them when the
// file was generated. Speed-only changes to the synthesis kernels must
// reproduce every value bit for bit; the file is never regenerated to
// make a kernel change pass.
type qorGolden struct {
	Comment string          `json:"comment"`
	Cases   []qorGoldenCase `json:"cases"`
}

type qorGoldenCase struct {
	Design string `json:"design"`
	M      int    `json:"m"`
	Flow   string `json:"flow"`
	// Area and Delay are informational; AreaBits and DelayBits (the
	// math.Float64bits of each) are what the test compares.
	Area      float64 `json:"area"`
	Delay     float64 `json:"delay"`
	AreaBits  uint64  `json:"area_bits"`
	DelayBits uint64  `json:"delay_bits"`
	Gates     int     `json:"gates"`
	Ands      int     `json:"ands"`
	Levels    int     `json:"levels"`
}

func loadQoRGolden(t *testing.T) qorGolden {
	t.Helper()
	b, err := os.ReadFile("testdata/qor_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g qorGolden
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Cases) == 0 {
		t.Fatal("qor golden has no cases")
	}
	return g
}

// TestQoRGolden re-labels every golden flow and requires bit-identical
// area and delay (and identical gate, AND and level counts). With -short
// only the first flow of each design and space runs.
func TestQoRGolden(t *testing.T) {
	type group struct {
		design string
		m      int
	}
	var order []group
	byGroup := map[group][]qorGoldenCase{}
	for _, c := range loadQoRGolden(t).Cases {
		k := group{c.Design, c.M}
		if _, ok := byGroup[k]; !ok {
			order = append(order, k)
		}
		if testing.Short() && len(byGroup[k]) > 0 {
			continue
		}
		byGroup[k] = append(byGroup[k], c)
	}
	for _, k := range order {
		cases := byGroup[k]
		d, err := circuits.ByName(k.design)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(d.Build(), flow.NewSpace(flow.DefaultAlphabet, k.m))
		flows := make([]flow.Flow, len(cases))
		for i, c := range cases {
			if flows[i], err = e.Space.Parse(c.Flow); err != nil {
				t.Fatalf("%s m=%d case %d: %v", k.design, k.m, i, err)
			}
		}
		qs, err := e.EvaluateAll(flows, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cases {
			q := qs[i]
			if math.Float64bits(q.Area) != c.AreaBits || math.Float64bits(q.Delay) != c.DelayBits ||
				q.Gates != c.Gates || q.Ands != c.Ands || q.Levels != c.Levels {
				t.Errorf("%s m=%d %q:\n got area=%v delay=%v gates=%d ands=%d levels=%d\nwant area=%v delay=%v gates=%d ands=%d levels=%d",
					k.design, k.m, c.Flow, q.Area, q.Delay, q.Gates, q.Ands, q.Levels,
					c.Area, c.Delay, c.Gates, c.Ands, c.Levels)
			}
		}
	}
}
