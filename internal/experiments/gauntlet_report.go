package experiments

import (
	"fmt"
	"slices"
	"strings"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/storage"
)

// passFail renders a verdict-sheet outcome.
func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// writeVerdicts appends one system's invariant block to a gauntlet report.
func writeVerdicts(b *strings.Builder, kind cdb.Kind, verdicts []check.Verdict) {
	fmt.Fprintf(b, "\n%s invariants:\n", kind)
	for _, v := range verdicts {
		fmt.Fprintf(b, "  %-18s %s\n", v.Name, v)
	}
}

// The footers below restate a report's fault schedule from the schedule
// itself, so editing a schedule cannot leave its report describing the old
// one.

// faultList renders a chaos schedule as "kind(target), ..." in declaration
// order; untargeted faults hit "all" links.
func faultList(sched chaos.Schedule) string {
	parts := make([]string, len(sched.Events))
	for i, ev := range sched.Events {
		target := ev.Target
		if target == "" {
			target = "all"
		}
		parts[i] = fmt.Sprintf("%s(%s)", ev.Kind, target)
	}
	return strings.Join(parts, ", ")
}

// killList renders a crash schedule's node kills as "target@at (note)":
// torn-tail kills and replica resyncs are called out.
func killList(sched chaos.Schedule) string {
	var parts []string
	for _, ev := range sched.Events {
		if ev.Kind != chaos.NodeCrash {
			continue
		}
		kill := fmt.Sprintf("%s@%v", ev.Target, ev.At)
		switch {
		case ev.Torn != storage.TornNone:
			kill += " (torn tail)"
		case ev.Target != "rw":
			kill += " (resync)"
		}
		parts = append(parts, kill)
	}
	return "kill " + strings.Join(parts, ", ")
}

// cutList renders a partition schedule's cuts and heals. A cut that leaves
// clients on neither side is gray: clients still reach the cut-off group.
func cutList(sched chaos.Schedule) string {
	group := func(names []string) string {
		if len(names) == 1 {
			return names[0]
		}
		return "{" + strings.Join(names, ", ") + "}"
	}
	var parts []string
	for _, ev := range sched.Events {
		switch ev.Kind {
		case chaos.Partition:
			cut := fmt.Sprintf("cut %s | %s at %v", group(ev.GroupA), group(ev.GroupB), ev.At)
			if !slices.Contains(ev.GroupA, "client") && !slices.Contains(ev.GroupB, "client") {
				cut += " (gray: clients still reach " + strings.Join(ev.GroupA, ", ") + ")"
			}
			parts = append(parts, cut)
		case chaos.Heal:
			parts = append(parts, fmt.Sprintf("heal at %v", ev.At))
		default:
			parts = append(parts, fmt.Sprintf("%s at %v", ev.Kind, ev.At))
		}
	}
	return strings.Join(parts, ", ")
}
