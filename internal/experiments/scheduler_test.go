package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rarpred/internal/runerr"
	"rarpred/internal/workload"
)

// orderedExperiment is a synthetic cell experiment that appends each
// cell's "exp/workload" key to order as it starts.
func orderedExperiment(id string, mu *sync.Mutex, order *[]string) Experiment {
	return Experiment{
		ID:    id,
		Title: "synthetic " + id,
		Cells: cells(
			func(ctx context.Context, opt Options, w workload.Workload) (countRow, error) {
				mu.Lock()
				*order = append(*order, id+"/"+w.Name)
				mu.Unlock()
				return countRow{Workload: w, Value: len(w.Name)}, nil
			},
			func(opt Options, ws []workload.Workload, rows []countRow, fails []*runerr.WorkloadError) (Result, error) {
				res := countResult{}
				for _, r := range rows {
					res.lines = append(res.lines, fmt.Sprintf("%s %s=%d", id, r.Name, r.Value))
				}
				return annotate(res, fails), nil
			},
		),
	}
}

// TestSuiteLPTOrdering: with a cost model and one worker, cells execute
// longest-first, unknown-cost cells lead, and the delivered output is
// byte-identical to an unordered run.
func TestSuiteLPTOrdering(t *testing.T) {
	ws := workload.All()[:3]
	exps := func(mu *sync.Mutex, order *[]string) []Experiment {
		return []Experiment{
			orderedExperiment("synthL1", mu, order),
			orderedExperiment("synthL2", mu, order),
		}
	}

	// Distinct costs for every cell except synthL2/ws[1], which has no
	// estimate and must therefore run before every estimated cell.
	cost := map[string]float64{
		"synthL1/" + ws[0].Name: 3,
		"synthL1/" + ws[1].Name: 6,
		"synthL1/" + ws[2].Name: 1,
		"synthL2/" + ws[0].Name: 5,
		"synthL2/" + ws[2].Name: 4,
	}
	var mu sync.Mutex
	var order []string
	opt := Options{
		Workloads:   ws,
		Parallelism: 1,
		CellCost: func(exp, wl string) (float64, bool) {
			c, ok := cost[exp+"/"+wl]
			return c, ok
		},
	}
	got, _ := renderSuite(t, opt, exps(&mu, &order))

	want := []string{
		"synthL2/" + ws[1].Name, // unknown cost: scheduled first
		"synthL1/" + ws[1].Name, // 6
		"synthL2/" + ws[0].Name, // 5
		"synthL2/" + ws[2].Name, // 4
		"synthL1/" + ws[0].Name, // 3
		"synthL1/" + ws[2].Name, // 1
	}
	if len(order) != len(want) {
		t.Fatalf("ran %d cells, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order[%d] = %s, want %s\nfull order: %v", i, order[i], want[i], order)
		}
	}

	// Ordering is a scheduling detail: delivery stays in suite order, so
	// the rendered output matches a run with no cost model at all.
	var mu2 sync.Mutex
	var order2 []string
	ref, _ := renderSuite(t, Options{Workloads: ws, Parallelism: 1}, exps(&mu2, &order2))
	if got != ref {
		t.Fatalf("LPT run output differs from unordered run:\n--- lpt ---\n%s--- plain ---\n%s", got, ref)
	}
	// The unordered run keeps construction order (experiment-major).
	for i, k := range order2 {
		wantK := []string{"synthL1", "synthL1", "synthL1", "synthL2", "synthL2", "synthL2"}[i] +
			"/" + ws[i%3].Name
		if k != wantK {
			t.Fatalf("plain order[%d] = %s, want %s", i, k, wantK)
		}
	}
}

// TestSuiteLPTWithResume: resumed cells never enter the queue, and the
// remaining cells still sort by cost.
func TestSuiteLPTWithResume(t *testing.T) {
	ws := workload.All()[:3]
	jnl := &memJournal{}
	var calls atomic.Int64
	first := countingExperiment("synthM", &calls, "")
	codec := first.Cells.(RowCodec)
	row, err := first.Cells.Cell(context.Background(), Options{}, ws[0])
	if err != nil {
		t.Fatal(err)
	}
	enc, err := codec.EncodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Record("synthM", ws[0].Name, enc)

	var mu sync.Mutex
	var order []string
	opt := Options{
		Workloads:   ws,
		Parallelism: 1,
		Journal:     jnl,
		CellCost: func(exp, wl string) (float64, bool) {
			if wl == ws[1].Name {
				return 1, true
			}
			return 9, true
		},
	}
	renderSuite(t, opt, []Experiment{orderedExperiment("synthM", &mu, &order)})
	want := []string{"synthM/" + ws[2].Name, "synthM/" + ws[1].Name}
	if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
		t.Fatalf("resumed LPT order = %v, want %v", order, want)
	}
}
