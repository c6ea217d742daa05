package experiments

import (
	"fmt"

	"pathprof/internal/apps"
	"pathprof/internal/estimate"
	"pathprof/internal/stats"
)

// The applications experiment quantifies the paper's motivation: how many
// optimization opportunities (cross-backedge redundant computations,
// caller-determined callee branches) can be *proven* from each profile
// kind. Opportunities are weighted by lower-bound frequencies, so a wider
// bound band directly shrinks what an optimizer may act on.

// ApplicationRow is one benchmark's opportunity census.
type ApplicationRow struct {
	Name string
	// RedundBL / RedundOL are provably removable instruction executions
	// (cross-backedge PRE) under BL-only and OL-k bounds.
	RedundBL, RedundOL int64
	// BranchesBL / BranchesOL count caller-determined callee branch
	// findings with proven flow >= 1.
	BranchesBL, BranchesOL int
}

// Applications runs both analyses on every benchmark at k ~ max/3.
func Applications(runs []*BenchRun, mode estimate.Mode) ([]ApplicationRow, error) {
	var out []ApplicationRow
	for _, br := range runs {
		row := ApplicationRow{Name: br.B.Name}
		for _, k := range []int{-1, br.KChosen()} {
			pe, err := br.Estimate(k, mode)
			if err != nil {
				return nil, err
			}
			var redund int64
			for _, le := range pe.Loops {
				redund += apps.AnalyzeLoopRedundancy(le.Func, le.Loop, le.Res).ProvableSavings
			}
			branches := 0
			for _, se := range pe.Sites {
				if se.TypeI == nil {
					continue
				}
				corr, err := apps.AnalyzeBranchCorrelation(br.Info, se.Caller, se.Site, se.Callee.Index, se.TypeI, 1)
				if err != nil {
					return nil, err
				}
				branches += len(corr)
			}
			if k < 0 {
				row.RedundBL = redund
				row.BranchesBL = branches
			} else {
				row.RedundOL = redund
				row.BranchesOL = branches
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderApplications renders the opportunity census.
func RenderApplications(rows []ApplicationRow) string {
	t := stats.NewTable("Benchmark",
		"PRE savings (BL)", "PRE savings (OL-k)",
		"fixed branches (BL)", "fixed branches (OL-k)")
	var rb, ro int64
	var bb, bo int
	for _, r := range rows {
		t.Row(r.Name,
			fmt.Sprintf("%d", r.RedundBL),
			fmt.Sprintf("%d", r.RedundOL),
			fmt.Sprintf("%d", r.BranchesBL),
			fmt.Sprintf("%d", r.BranchesOL))
		rb += r.RedundBL
		ro += r.RedundOL
		bb += r.BranchesBL
		bo += r.BranchesOL
	}
	t.Row("Total", fmt.Sprintf("%d", rb), fmt.Sprintf("%d", ro),
		fmt.Sprintf("%d", bb), fmt.Sprintf("%d", bo))
	return "Applications: optimization opportunities provable from each profile (k~max/3)\n" + t.String()
}
