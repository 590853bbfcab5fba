package experiments

import (
	"fmt"
	"strings"

	"rarpred/internal/cloak"
	"rarpred/internal/runerr"
	"rarpred/internal/stats"
	"rarpred/internal/workload"
)

func init() {
	register(Experiment{
		ID: "ablmerge",
		Title: "Ablation: synonym merge policy (incremental Chrysos/Emer " +
			"vs full associative vs never; Section 5.1 discussion)",
		Cells: ablMergeCells,
	})
	register(Experiment{
		ID: "ablsplit",
		Title: "Ablation: shared vs split DDT (the Section 5.6.2 eviction " +
			"anomaly)",
		Cells: ablSplitCells,
	})
	register(Experiment{
		ID:    "abldpnt",
		Title: "Ablation: DPNT capacity sweep (512 entries to infinite)",
		Cells: ablDPNTCells,
	})
}

// ablCell is coverage/misspeculation for one configuration.
type ablCell struct {
	Coverage float64
	Misp     float64
}

// AblationResult is a generic per-workload, per-variant accuracy table.
type AblationResult struct {
	Title    string
	Variants []string
	Rows     []struct {
		Workload workload.Workload
		Cells    []ablCell
	}
}

// variantCells builds a CellRunner that reads one cloaking engine's
// Stats per variant from the pass's shared engines, so a variant equal
// to another experiment's configuration (the default, say) runs once
// per workload.
func variantCells(title string, variants []string, mk func(variant int) cloak.Config) CellRunner {
	type row = struct {
		Workload workload.Workload
		Cells    []ablCell
	}
	return tracedCells(workload.ReferenceSize,
		func(_ Options, w workload.Workload, m *member) func() (row, error) {
			engines := make([]func() cloak.Stats, len(variants))
			for i := range variants {
				engines[i] = m.engineStats(mk(i))
			}
			return func() (row, error) {
				r := row{Workload: w, Cells: make([]ablCell, len(variants))}
				for i, read := range engines {
					st := read()
					r.Cells[i] = ablCell{
						Coverage: stats.Ratio(st.Covered(), st.Loads),
						Misp:     stats.Ratio(st.Mispredicted(), st.Loads),
					}
				}
				return r, nil
			}
		},
		func(_ Options, _ []workload.Workload, rows []row, fails []*runerr.WorkloadError) (Result, error) {
			return annotate(&AblationResult{Title: title, Variants: variants, Rows: rows}, fails), nil
		})
}

var ablMergeCells = func() CellRunner {
	variants := []string{"incremental", "full", "never"}
	merges := []cloak.MergeKind{cloak.MergeIncremental, cloak.MergeFull, cloak.MergeNever}
	return variantCells("Synonym merge policy", variants, func(i int) cloak.Config {
		cfg := cloak.DefaultConfig()
		cfg.Merge = merges[i]
		return cfg
	})
}()

var ablSplitCells = variantCells("Shared vs split DDT",
	[]string{"shared 128", "split 128+128"}, func(i int) cloak.Config {
		cfg := cloak.DefaultConfig()
		cfg.SplitDDT = i == 1
		return cfg
	})

var ablDPNTCells = func() CellRunner {
	sizes := []int{512, 2048, 8192, 0}
	variants := []string{"512", "2K", "8K", "inf"}
	return variantCells("DPNT capacity", variants, func(i int) cloak.Config {
		cfg := cloak.DefaultConfig()
		if sizes[i] > 0 {
			cfg.DPNTSets = sizes[i] / 2
			cfg.DPNTWays = 2
		}
		return cfg
	})
}()

func runAblMerge(opt Options) (Result, error) { return runCells(opt, ablMergeCells) }

func runAblSplit(opt Options) (Result, error) { return runCells(opt, ablSplitCells) }

func runAblDPNT(opt Options) (Result, error) { return runCells(opt, ablDPNTCells) }

// String renders coverage and misspeculation per variant.
func (r *AblationResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: %s\n", r.Title)
	header := []string{"prog"}
	for _, v := range r.Variants {
		header = append(header, v+" cov", v+" misp")
	}
	t := stats.NewTable(header...)
	for _, row := range r.Rows {
		cells := []any{row.Workload.Abbrev}
		for _, c := range row.Cells {
			cells = append(cells, stats.Pct(c.Coverage), stats.Pct2(c.Misp))
		}
		t.Row(cells...)
	}
	sb.WriteString(t.String())
	// Suite means per variant.
	means := make([]float64, len(r.Variants))
	for _, row := range r.Rows {
		for i, c := range row.Cells {
			means[i] += c.Coverage
		}
	}
	sb.WriteString("mean coverage:")
	for i, v := range r.Variants {
		fmt.Fprintf(&sb, " %s %s", v, stats.Pct(means[i]/float64(len(r.Rows))))
	}
	sb.WriteByte('\n')
	return sb.String()
}
