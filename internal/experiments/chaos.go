package experiments

import (
	"fmt"
	"strings"

	"cloudybench/internal/chaos"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

// Chaos runs every SUT through the standard fault gauntlet (disk stall,
// cache drop, link degrade, IO-error burst, replica crash mid-replay, node
// pause) while the invariant recorder watches the transaction history, then
// reports a verdict sheet per system plus the recovery metrics the faults
// left behind. Deterministic: the same scale and seed reproduce the report
// byte for byte.
func Chaos(sc Scale) (string, []evaluator.ChaosResult) {
	results := runCells(len(SUTs), func(i int) evaluator.ChaosResult {
		return evaluator.RunChaos(evaluator.ChaosConfig{
			Kind: SUTs[i], Span: sc.ChaosSpan, Concurrency: sc.ChaosConc, Seed: sc.Seed,
		})
	})
	tbl := report.NewTable("Chaos gauntlet — invariant verdicts under injected faults",
		"System", "Verdict", "Commits", "Errors", "Faults", "TPS", "Quiesce")
	var detail strings.Builder
	for _, r := range results {
		tbl.AddRow(string(r.Kind), passFail(r.Passed()),
			fmt.Sprintf("%d", r.Commits),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%d", len(r.Applied)),
			report.F(r.TPS),
			report.Dur(r.QuiesceTime))
		writeVerdicts(&detail, r.Kind, r.Verdicts)
	}
	var b strings.Builder
	b.WriteString(tbl.String())
	b.WriteString(detail.String())
	fmt.Fprintf(&b, "\nFault schedule (per run): %s\n", faultList(chaos.Standard(sc.ChaosSpan)))
	return b.String(), results
}
