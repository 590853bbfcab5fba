package experiments

import (
	"context"
	"testing"

	"rarpred/internal/workload"
)

// BenchmarkPass runs one workload's replay pass with every stream
// experiment as a member (gcc at the reference size, stream warm in the
// cache): one decode per chunk, the shared engines, every sink and
// every finish step, including ablprofile's second phase.
func BenchmarkPass(b *testing.B) {
	w, _ := workload.ByAbbrev("gcc")
	var opt Options
	var runners []passRunner
	for _, e := range All() {
		if r, ok := e.Cells.(passRunner); ok {
			runners = append(runners, r)
		}
	}
	tr, err := workloadStream(context.Background(), opt, w, workload.ReferenceSize, opt.maxInsts())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := make([]*member, len(runners))
		for k, r := range runners {
			ms[k] = &member{r: r}
		}
		runPass(context.Background(), opt, w, ms)
		for _, m := range ms {
			if m.err != nil {
				b.Fatal(m.err)
			}
		}
	}
	b.ReportMetric(float64(len(runners)), "members")
	b.ReportMetric(float64(tr.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}
