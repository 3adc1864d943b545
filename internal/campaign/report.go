package campaign

import (
	"fmt"
	"strings"

	"repro/internal/experiment"
	"repro/internal/viz"
)

// render fills Result.Report and Result.SVGs from the completed units. The
// rendering is a pure function of the result data — no timestamps, no
// environment — so a replayed campaign produces byte-identical artifacts.
func render(res *Result) {
	m := res.Manifest
	title := m.Title
	if title == "" {
		title = fmt.Sprintf("Campaign %s", m.Name)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n\n", title)
	fmt.Fprintf(&sb,
		"Manifest `%s`, base seed %d: %d experiment driver(s), %d grid cell(s). "+
			"Every value below is deterministic for the manifest — rerunning reproduces this file byte for byte.\n\n",
		m.Name, m.Seed, len(res.Experiments), len(res.Cells))

	if len(res.Cells) > 0 {
		sb.WriteString("## Topology zoo\n\n")
		sb.WriteString("| topology | switches | processors | links | diameter | tables (MiB) | compression |\n")
		sb.WriteString("| --- | --- | --- | --- | --- | --- | --- |\n")
		seen := map[string]bool{}
		for _, c := range res.Cells {
			key := fmt.Sprintf("%s@%d", c.Topology, c.Seed)
			if seen[key] {
				continue
			}
			seen[key] = true
			fmt.Fprintf(&sb, "| `%s` | %d | %d | %d | %d | %.2f | %.1fx |\n",
				c.Topology, c.Switches, c.Processors, c.Links, c.Diameter,
				c.TableMB, c.TableCompression)
		}
		sb.WriteString("\n")
	}

	if len(res.Experiments) > 0 {
		sb.WriteString("## Paper experiments\n\n")
	}
	for _, er := range res.Experiments {
		fmt.Fprintf(&sb, "### %s\n\n", er.Table.Title)
		fmt.Fprintf(&sb, "Driver `%s`, seed %d.\n\n", er.Driver, er.Seed)
		if len(er.Series) > 0 {
			name := "plots/exp-" + sanitize(er.Driver) + ".svg"
			res.SVGs[name] = viz.CurveSVG(er.Table.Title, er.XLabel, er.YLabel, toCurves(er.Series))
			fmt.Fprintf(&sb, "![%s](%s)\n\n", er.Driver, name)
		}
		writeMarkdownTable(&sb, er.Table)
		sb.WriteString("\n")
	}

	// Grid sections, in manifest order.
	for gi := range m.Grids {
		g := &m.Grids[gi]
		var cells []*CellResult
		for _, c := range res.Cells {
			if c.Grid == g.Name {
				cells = append(cells, c)
			}
		}
		if len(cells) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "## Grid: %s\n\n", g.Name)
		fmt.Fprintf(&sb, "%d cells = %d topologies x %d scenarios x %d fault profiles x %d seeds, %d trial(s) each.\n\n",
			len(cells), len(g.Topologies), len(g.Scenarios), max(1, len(g.FaultProfiles)), max(1, len(g.Seeds)), cells[0].Trials)

		name := "plots/grid-" + sanitize(g.Name) + ".svg"
		res.SVGs[name] = gridSVG(g, cells)
		fmt.Fprintf(&sb, "![%s](%s)\n\n", g.Name, name)

		sb.WriteString("| topology | scenario | faults | seed | samples | mean(us) | ci95(us) | p50(us) | p90(us) | p99(us) | max(us) | worms | flit-hops | hdr-wait | aborted |\n")
		sb.WriteString("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n")
		for _, c := range cells {
			fault := c.Fault
			if fault == "" {
				fault = "-"
			}
			// The counter columns are the engine's exact per-cell totals
			// (summed over trials): completed worms, payload flit hops,
			// header-acquisition waits, and fault-aborted worms.
			fmt.Fprintf(&sb, "| `%s` | %s | %s | %d | %d | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %d | %d | %d | %d |\n",
				c.Topology, c.Scenario, fault, c.Seed, c.Count,
				c.MeanUs, c.CI95Us, c.P50Us, c.P90Us, c.P99Us, c.MaxUs,
				c.Counters.WormsCompleted, c.Counters.PayloadFlitHops,
				c.Counters.HeaderAcquireWait, c.Counters.WormsAborted)
		}
		sb.WriteString("\n")
	}

	if names := sortedSVGNames(res.SVGs); len(names) > 0 {
		sb.WriteString("## Plots\n\n")
		for _, n := range names {
			fmt.Fprintf(&sb, "- [%s](%s)\n", n, n)
		}
		sb.WriteString("\n")
	}
	res.Report = sb.String()
}

// gridSVG plots a grid's cells: mean latency (with CI bars) per topology
// (x = topology index, in manifest order), one curve per (scenario, fault
// profile, seed) combination.
func gridSVG(g *Grid, cells []*CellResult) string {
	topoIdx := map[string]int{}
	for i, t := range g.Topologies {
		topoIdx[t] = i
	}
	type curveKey struct{ label string }
	var order []string
	curves := map[string]*viz.CurveSeries{}
	for _, c := range cells {
		label := c.Scenario
		if c.Fault != "" {
			label += "+" + c.Fault
		}
		label += fmt.Sprintf(" (seed %d)", c.Seed)
		cs, ok := curves[label]
		if !ok {
			cs = &viz.CurveSeries{Label: label}
			curves[label] = cs
			order = append(order, label)
		}
		cs.Points = append(cs.Points, viz.CurvePoint{
			X: float64(topoIdx[c.Topology]), Y: c.MeanUs, Err: c.CI95Us,
		})
	}
	out := make([]viz.CurveSeries, 0, len(order))
	for _, label := range order {
		out = append(out, *curves[label])
	}
	return viz.CurveSVG(
		fmt.Sprintf("Grid %s: mean latency by topology", g.Name),
		fmt.Sprintf("topology index (0=%s)", g.Topologies[0]),
		"latency (us)", out)
}

// toCurves converts experiment series to viz curves (CI as error bars),
// leaving out points without samples, as the tables print no mean for them.
func toCurves(series []experiment.Series) []viz.CurveSeries {
	out := make([]viz.CurveSeries, len(series))
	for i, s := range series {
		out[i].Label = s.Label
		for _, p := range s.Points {
			if p.N > 0 {
				out[i].Points = append(out[i].Points, viz.CurvePoint{X: p.X, Y: p.Mean, Err: p.CI95})
			}
		}
	}
	return out
}

// writeMarkdownTable renders an experiment table as GitHub-flavored
// Markdown.
func writeMarkdownTable(sb *strings.Builder, t *experiment.Table) {
	sb.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		cells := make([]string, len(t.Headers))
		copy(cells, row)
		for i := range cells {
			if cells[i] == "" {
				cells[i] = "-"
			}
		}
		sb.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
